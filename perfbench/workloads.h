// Seeded op streams of the benchmark workloads (NOTES.md).
//
// Every stream is a pure function of the workload seed: the program under
// test only ever sees the request texts these generators produce. Streams
// are unbounded and generated lazily, because a run lasts a fixed time,
// not a fixed op count; the first n ops of a stream are its "op list".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ntvbench {

/// splitmix64: the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// One Table 1 cell: the paper's 4 nodes x {0.50, ..., 0.70} V.
struct Cell {
  std::string node;
  double vdd = 0.0;
};

/// Canonical names of the paper's four technology nodes, in
/// device::all_nodes() order.
const std::vector<const char*>& device_names();

/// The 20 cells, node-major in device_names() order.
std::vector<Cell> table1_cells();

/// `{"command":"spares","node":N,"vdd_grid":[V],"backend":"mc"}` with
/// the default chip budget and seed.
std::string cell_request(const Cell& cell);

/// table1_mc op stream: rounds of the 20 cells, each round in an order
/// drawn from the seed. Yields cell indices.
class CellOrder {
 public:
  explicit CellOrder(std::uint64_t seed);
  std::size_t next();

 private:
  Rng rng_;
  std::vector<std::size_t> round_;
  std::size_t pos_;
};

/// serve_mixed's op classes; a percentile is only meaningful inside one
/// class. Analytic spares and drop misses cost the same, so they are one.
enum class OpClass { kHit, kMiss };
std::string_view to_string(OpClass cls);

struct Op {
  OpClass cls = OpClass::kHit;
  std::string text;
  std::size_t hot = 0;  ///< Index into hot_set() when cls == kHit.
};

/// serve_mixed's hot repeats: every command, both backends, computed in
/// set-up so that the timed phase only ever hits them.
const std::vector<std::string>& hot_set();

/// Hit share of the interactive stream, exact per block of kMixBlock ops.
inline constexpr std::size_t kMixBlock = 10;
inline constexpr std::size_t kHitsPerBlock = 7;

/// serve_mixed's op stream: per block of kMixBlock ops, kHitsPerBlock
/// hot repeats and the rest unique analytic spares/drop misses, at seeded
/// positions. Hot repeats cycle through seeded permutations of the hot
/// set, so every hot entry is refreshed in the artifact cache's LRU long
/// before it could age out. Misses walk one seeded permutation of
/// (node, command, Vdd) with Vdd on a half-odd microvolt grid over
/// 0.50-0.70 V, so no miss repeats in a run.
class InteractiveStream {
 public:
  explicit InteractiveStream(std::uint64_t seed);
  Op next();

 private:
  Rng rng_;
  std::size_t hot_count_;
  std::vector<std::size_t> hot_cycle_;
  std::size_t hot_pos_;
  std::vector<unsigned char> block_;  ///< 1 = hit, for the current block.
  std::size_t block_pos_;
  std::uint64_t miss_mul_, miss_add_;
  std::uint64_t miss_next_ = 0;
};

}  // namespace ntvbench
