#include "trace.h"

#include <cstdio>

namespace ntvbench {

namespace {
/// Innermost open span of this thread, per tracer lifetime (one tracer
/// is live at a time).
thread_local std::int32_t t_open = -1;
}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::int32_t Tracer::begin(const char* name, std::int64_t op) {
  Span span;
  span.name = name;
  span.parent = t_open;
  span.op = op;
  std::int32_t index;
  {
    std::lock_guard<std::mutex> lk(mu_);
    index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(span);
  }
  t_open = index;
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(index)].start_ns = start;
  return index;
}

void Tracer::end(std::int32_t index) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = end;
  t_open = span.parent;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::map<std::string, PathStats> Tracer::tree(const std::vector<Span>& spans) {
  // Parents precede their children, so one forward pass builds paths and
  // one more charges each child to its parent's covered time.
  std::vector<std::string> paths(spans.size());
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    paths[i] = s.parent < 0
                   ? std::string(s.name)
                   : paths[static_cast<std::size_t>(s.parent)] + "/" + s.name;
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] += s.duration_ns();
    }
  }
  std::map<std::string, PathStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    PathStats& p = out[paths[i]];
    ++p.count;
    p.total_ns += spans[i].duration_ns();
    p.self_ns += spans[i].duration_ns() - covered[i];
  }
  return out;
}

bool Tracer::write_tsv(const std::vector<Span>& spans,
                       const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "index\tparent\top\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%d\t%lld\t%s\t%lld\t%lld\n", i, s.parent,
                 static_cast<long long>(s.op), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace ntvbench
