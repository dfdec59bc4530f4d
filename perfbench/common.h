// Shared pieces of ntvbench: run options, the result being
// assembled, order statistics, registry deltas and the per-layer table.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace ntvbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir = ".bench_build/results";
  std::string digests = "perfbench/table1_mc.digests";  ///< table1_mc.
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Latencies of one op class, for the percentile placement check.
struct ClassStat {
  std::string name;
  double share = 0.0;   ///< Fraction of the ops, in [0, 1].
  double median = 0.0;  ///< Median latency of the class.
};

/// Everything one run reports.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  ///< Failed correctness checks.
  /// The contract metrics: end-to-end (untraced) or per-layer (traced).
  std::vector<Metric> metrics;
  /// Printed and written with the result, but not contract metrics.
  std::vector<Metric> extra;
  std::vector<std::pair<std::string, std::string>> provenance;
  /// Op classes of the untraced phase and the percentiles reported over
  /// them, for the placement check.
  std::vector<ClassStat> classes;
  std::vector<double> percentiles;
  /// Traced runs: the span tree and the per-layer table, and the spans.
  std::string trace_json;
  std::vector<Span> trace_spans;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void add(std::vector<Metric>& to, std::string name, std::string unit,
           double value) {
    to.push_back({std::move(name), std::move(unit), value});
  }
};

/// Every op of a timed phase: its latency, its op class (a cell index in
/// table1_mc, an OpClass in serve_mixed) and when it completed.
class OpLog {
 public:
  void reserve(std::size_t ops) {
    ms_.reserve(ops);
    cls_.reserve(ops);
    done_s_.reserve(ops);
  }
  /// `done_s`: completion time [s] since the start of the phase.
  void add(double ms, std::size_t cls, double done_s) {
    ms_.push_back(static_cast<float>(ms));
    cls_.push_back(static_cast<std::uint8_t>(cls));
    done_s_.push_back(static_cast<float>(done_s));
  }
  std::int64_t count(int cls = -1) const;
  /// Latencies [ms] of class `cls`, or of every op.
  std::vector<double> values(int cls = -1) const;

  /// Medians over kWindows windows of equal length, ops assigned by
  /// completion time, of each window's throughput and latency
  /// percentiles. A window's throughput is its op count over the time
  /// from the previous window's last completion (the phase start for the
  /// first) to its own last one.
  struct Windowed {
    double ops_per_s = 0.0, p50_ms = 0.0, p90_ms = 0.0;
  };
  static constexpr int kWindows = 5;
  Windowed windowed(double phase_s) const;

 private:
  std::vector<float> ms_;
  std::vector<std::uint8_t> cls_;
  std::vector<float> done_s_;
};

/// Type-7 (linear interpolation) percentile, p in [0, 100]; 0 when empty.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// System-wide CPU time stolen by the hypervisor and all CPU time, in
/// clock ticks since boot (/proc/stat; zeros where it cannot be read).
struct HostTicks {
  double steal = 0.0, total = 0.0;
  static HostTicks take();
};

double now_s();
double cpu_s();        ///< Process user + system CPU time.
double peak_rss_mb();  ///< Peak resident set of this process image.
int hardware_threads();

/// The CPUs this process may run on, in order.
std::vector<int> allowed_cpus();
/// "0,1,2,3".
std::string cpu_list(const std::vector<int>& cpus);
/// Moves every thread of the process onto `cpu`; threads started later
/// inherit it. A timed window of each workload runs on one CPU, the next
/// window on the next allowed CPU, so the windowed medians span the
/// VM's CPUs rather than one CPU's state of the moment, and no op waits
/// for a hand-off to another virtual CPU
/// (NOTES.md#why-the-workloads-look-like-this).
void move_process_to(int cpu);

/// Point-in-time values of the registry metrics the benchmark reads.
struct Sample {
  std::int64_t fill_ns = 0, curves_ns = 0, search_ns = 0, mc_ns = 0;
  std::int64_t mc_samples = 0, guide_hits = 0, scans = 0;
  std::int64_t tasks = 0, busy_ns = 0, interactive_tasks = 0;
  std::int64_t dist_builds = 0;
  std::int64_t requests = 0, hits = 0, computed = 0;
  std::int64_t errors = 0, overloads = 0, timeouts = 0;

  static Sample take();
  Sample operator-(const Sample& o) const;
};
double dist_cache_entries();

/// Sorts classes by median cost and returns one message per reported
/// percentile that lies within 5 points of a boundary between adjacent
/// classes whose medians differ by more than 2x. Such a percentile
/// flips between classes from run to run.
std::vector<std::string> placement_violations(
    std::vector<ClassStat> classes, const std::vector<double>& percentiles);

/// Per-layer metrics of the traced run: name, unit, how it is measured
/// and the end-to-end metric and workload it should move.
struct LayerMetricDef {
  const char* name;
  const char* unit;
  const char* measured_as;
  const char* should_move;
};
const std::vector<LayerMetricDef>& layer_metrics();

/// Fills `report.metrics` from `values` in layer_metrics() order (0 for
/// a metric the workload never reaches) and builds `report.trace_json`.
void finish_trace(const Options& options, const std::vector<Span>& spans,
                  const std::map<std::string, double>& values,
                  const std::map<std::string, double>& overhead,
                  Report& report);

/// The engine's sign-off percentile and spare-lane cap (service/engine.cc
/// runs core::MitigationStudy with its defaults).
inline constexpr double kSignoff = 99.0;
inline constexpr int kMaxSpares = 128;

/// points[0] of a one-point spares or drop results fragment.
struct PointAnswer {
  int spares = -1;
  bool feasible = false;
  double drop_pct = 0.0;
};
/// Reads `spares` and `feasible` (spares) or `drop_pct` (drop); false when
/// the fragment holds neither.
bool read_point(const std::string& results, PointAnswer* out);

/// Builds the Monte Carlo sampler of each distinct (node, Vdd) once,
/// each under a `device.build` span, ahead of the evaluations that would
/// otherwise build it.
void trace_sampler_builds(
    const std::vector<std::pair<std::string, double>>& points,
    Tracer& tracer);

/// Median duration, in `unit_ns` units, of the spans named `name`.
double span_median(const std::vector<Span>& spans, const char* name,
                   double unit_ns);

/// Workload entry points (table1.cc, serve.cc).
void run_table1_mc(const Options& options, Report& report);
void run_serve_mixed(const Options& options, Report& report);

}  // namespace ntvbench
