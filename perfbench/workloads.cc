#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "device/tech_node.h"

namespace ntvbench {

namespace {

constexpr double kTable1Vdds[] = {0.50, 0.55, 0.60, 0.65, 0.70};

/// (node, command, Vdd) points of the unique misses: 4 nodes x
/// 2 commands x 200000 Vdds at 0.5000005 + k * 1e-6 V. The half-odd
/// microvolt grid never meets the millivolt grid the hot set and the
/// Table 1 cells use, and stays far above the 0.1 uV quantum the study
/// caches key on.
constexpr std::uint64_t kVddPoints = 200000;
constexpr std::uint64_t kPoints = 4 * 2 * kVddPoints;

const char* node_name(std::size_t i) {
  return device_names()[i];
}

/// An affine bijection of [0, kPoints): a multiplier coprime to
/// kPoints = 2^9 * 5^5 and an offset, both drawn from `rng`.
void draw_permutation(Rng& rng, std::uint64_t* mul, std::uint64_t* add) {
  std::uint64_t m = (rng.next() % kPoints) | 1;
  while (m % 5 == 0) m += 2;
  *mul = m % kPoints;
  *add = rng.next() % kPoints;
}

std::string miss_request(std::uint64_t point) {
  const char* command = (point / 4) % 2 == 0 ? "spares" : "drop";
  const double vdd = 0.5000005 + static_cast<double>(point / 8) * 1e-6;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"command\":\"%s\",\"node\":\"%s\",\"vdd_grid\":[%.7f],"
                "\"backend\":\"analytic\"}",
                command, node_name(point % 4), vdd);
  return buf;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

}  // namespace

const std::vector<const char*>& device_names() {
  static const std::vector<const char*> names = [] {
    std::vector<const char*> out;
    for (const auto* node : ntv::device::all_nodes()) {
      out.push_back(node->name.data());
    }
    return out;
  }();
  return names;
}

std::uint64_t Rng::next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<Cell> table1_cells() {
  std::vector<Cell> cells;
  for (const char* node : device_names()) {
    for (const double vdd : kTable1Vdds) cells.push_back({node, vdd});
  }
  return cells;
}

std::string cell_request(const Cell& cell) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "{\"command\":\"spares\",\"node\":\"%s\",\"vdd_grid\":[%.2f],"
                "\"backend\":\"mc\"}",
                cell.node.c_str(), cell.vdd);
  return buf;
}

CellOrder::CellOrder(std::uint64_t seed)
    : rng_(seed), round_(table1_cells().size()), pos_(round_.size()) {
  std::iota(round_.begin(), round_.end(), std::size_t{0});
}

std::size_t CellOrder::next() {
  if (pos_ == round_.size()) {
    shuffle(round_, rng_);
    pos_ = 0;
  }
  return round_[pos_++];
}

std::string_view to_string(OpClass cls) {
  switch (cls) {
    case OpClass::kHit:
      return "hit";
    case OpClass::kMiss:
      return "miss";
  }
  return "?";
}

const std::vector<std::string>& hot_set() {
  // Monte Carlo entries carry reduced budgets: only set-up computes
  // them, and a hit costs the same whatever the budget was.
  static const std::vector<std::string> hot = {
      R"({"command":"study","node":"90nm GP","vdd_grid":[0.5,0.6,0.7],"backend":"mc","samples":2000})",
      R"({"command":"study","node":"90nm GP","vdd_grid":[0.5,0.6,0.7],"backend":"analytic"})",
      R"({"command":"study","node":"22nm PTM HP","vdd_grid":[0.55],"backend":"analytic"})",
      R"({"command":"drop","node":"90nm GP","vdd_grid":[0.5,0.55,0.6],"backend":"mc","samples":2000})",
      R"({"command":"drop","node":"90nm GP","vdd_grid":[0.5,0.55,0.6],"backend":"analytic"})",
      R"({"command":"drop","node":"22nm PTM HP","vdd_grid":[0.6],"backend":"analytic"})",
      R"({"command":"drop","node":"32nm PTM HP","vdd_grid":[0.55],"backend":"mc","samples":2000})",
      R"({"command":"spares","node":"90nm GP","vdd_grid":[0.55],"backend":"mc","samples":2000})",
      R"({"command":"spares","node":"90nm GP","vdd_grid":[0.55],"backend":"analytic"})",
      R"({"command":"spares","node":"45nm GP","vdd_grid":[0.6],"backend":"analytic"})",
      R"({"command":"spares","node":"22nm PTM HP","vdd_grid":[0.7],"backend":"mc","samples":2000})",
      R"({"command":"spares","node":"32nm PTM HP","vdd_grid":[0.6,0.65],"backend":"analytic"})",
      R"({"command":"margin","node":"45nm GP","vdd_grid":[0.6],"backend":"mc","samples":2000})",
      R"({"command":"margin","node":"45nm GP","vdd_grid":[0.6],"backend":"analytic"})",
      R"({"command":"margin","node":"90nm GP","vdd_grid":[0.55],"backend":"analytic"})",
      R"({"command":"combined","node":"45nm GP","vdd_grid":[0.6],"backend":"mc","samples":1000})",
      R"({"command":"combined","node":"45nm GP","vdd_grid":[0.6],"backend":"analytic"})",
      R"({"command":"yield","node":"90nm GP","vdd_grid":[0.55],"t_clk_ns":20,"spares":4,"backend":"mc","samples":2000})",
      R"({"command":"yield","node":"90nm GP","vdd_grid":[0.55],"t_clk_ns":20,"spares":4,"backend":"analytic"})",
      R"({"command":"energy","node":"90nm GP"})",
  };
  return hot;
}

InteractiveStream::InteractiveStream(std::uint64_t seed)
    : rng_(seed ^ 0xC11E47ULL),
      hot_count_(hot_set().size()),
      hot_cycle_(hot_count_),
      hot_pos_(hot_count_),
      block_(kMixBlock),
      block_pos_(kMixBlock) {
  std::iota(hot_cycle_.begin(), hot_cycle_.end(), std::size_t{0});
  Rng perm(seed ^ 0x9E55ULL);
  draw_permutation(perm, &miss_mul_, &miss_add_);
}

Op InteractiveStream::next() {
  if (block_pos_ == block_.size()) {
    for (std::size_t i = 0; i < block_.size(); ++i) {
      block_[i] = i < kHitsPerBlock;
    }
    shuffle(block_, rng_);
    block_pos_ = 0;
  }
  Op op;
  if (block_[block_pos_++]) {
    if (hot_pos_ == hot_cycle_.size()) {
      shuffle(hot_cycle_, rng_);
      hot_pos_ = 0;
    }
    op.cls = OpClass::kHit;
    op.hot = hot_cycle_[hot_pos_++];
    op.text = hot_set()[op.hot];
    return op;
  }
  const std::uint64_t point =
      (miss_mul_ * (miss_next_++ % kPoints) + miss_add_) % kPoints;
  op.cls = OpClass::kMiss;
  op.text = miss_request(point);
  return op;
}

}  // namespace ntvbench
