// In-memory span recorder for the traced run (NOTES.md#tracing).
//
// Spans are recorded by the benchmark around its own calls into each
// layer; nothing inside the program is instrumented. A span holds its
// name, start and end (steady clock, ns since the recorder was made), the
// index of the enclosing span on the same thread (-1 for a root) and the
// op it belongs to. Spans stay in memory until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ntvbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t op = -1;
  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Aggregate of every span sharing one name path (root/.../leaf).
struct PathStats {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;  ///< total minus time covered by children.
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int64_t now_ns() const;

  /// Opens a span as a child of this thread's innermost open span.
  std::int32_t begin(const char* name, std::int64_t op);
  void end(std::int32_t index);

  /// Copy of every span recorded so far (call once the run is quiet).
  std::vector<Span> spans() const;

  /// The span tree aggregated by name path.
  static std::map<std::string, PathStats> tree(const std::vector<Span>& spans);

  /// Writes one line per span: index, parent, op, name, start, end.
  static bool write_tsv(const std::vector<Span>& spans,
                        const std::string& path);

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int64_t op)
      : tracer_(tracer), index_(tracer ? tracer->begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

}  // namespace ntvbench
