// table1_mc: the Table 1 sign-off cells under the Monte Carlo backend,
// evaluated in-process through service::parse_request ->
// service::evaluate by one closed-loop caller on an inline exec pool,
// one CPU at a time (NOTES.md#workloads).
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

#include "common.h"
#include "core/mitigation.h"
#include "device/dist_cache.h"
#include "device/tech_node.h"
#include "exec/thread_pool.h"
#include "harness/manifest.h"
#include "harness/spec.h"
#include "service/engine.h"
#include "service/request.h"
#include "workloads.h"

namespace ntvbench {

namespace {

namespace svc = ntv::service;

struct CellRef {
  Cell cell;
  std::string text;
  svc::AnalysisRequest request;
  std::string results;  ///< Engine results of the first set-up pass.
  PointAnswer answer;   ///< points[0] of `results`.
};

/// One op through the in-process front end.
svc::EngineResult parse_and_evaluate(const std::string& text, Tracer* tracer,
                                     std::int64_t op) {
  svc::ParseResult parsed;
  {
    ScopedSpan span(tracer, "service.parse", op);
    parsed = svc::parse_request(text);
  }
  if (!parsed.ok) return {false, "", parsed.message};
  ScopedSpan span(tracer, "service.evaluate", op);
  return svc::evaluate(parsed.request);
}

std::string cell_label(const Cell& cell) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s|%.2f", cell.node.c_str(), cell.vdd);
  return buf;
}

/// MC byte-identity (docs/PERF.md): each cell's results bytes hash to the
/// FNV-1a digest committed beside the benchmark.
void check_digests(const std::string& path, const std::vector<CellRef>& refs,
                   Report& report) {
  std::map<std::string, std::string> expected;
  std::ifstream in(path);
  report.check(in.good(), "cannot read results digests " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp != std::string::npos) {
      expected[line.substr(0, sp)] = line.substr(sp + 1);
    }
  }
  for (const CellRef& ref : refs) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(svc::fnv1a64(ref.results)));
    const std::string label = cell_label(ref.cell);
    const auto it = expected.find(label);
    report.check(it != expected.end() && it->second == hex,
                 "results digest of " + label + " is " + hex +
                     ", committed " +
                     (it == expected.end() ? "none" : it->second));
  }
}

/// Spare counts must land in the registry's table1 bands (the ✘ verdict
/// fails).
void check_bands(const std::vector<CellRef>& refs, Report& report) {
  const auto* spec = ntv::harness::find_spec("table1");
  report.check(spec != nullptr && !spec->checkpoints.empty(),
               "registry has no table1 checkpoints");
  if (!spec) return;
  for (const auto& cp : spec->checkpoints) {
    // Keys read spares_<node token>_<vdd>V, e.g. spares_90nm_0.50V.
    const std::string rest = cp.key.substr(cp.key.find('_') + 1);
    const std::string token = rest.substr(0, rest.find('_')) + " ";
    const double vdd = std::strtod(rest.c_str() + rest.find('_') + 1, nullptr);
    const CellRef* hit = nullptr;
    for (const CellRef& ref : refs) {
      if (ref.cell.node.rfind(token, 0) == 0 &&
          std::fabs(ref.cell.vdd - vdd) < 1e-9) {
        hit = &ref;
      }
    }
    if (!hit) {
      report.check(false, "table1 checkpoint " + cp.key + " names no cell");
      continue;
    }
    const auto verdict = ntv::harness::classify(cp, hit->answer.spares);
    report.check(verdict != ntv::harness::Verdict::kFail,
                 cp.key + " = " + std::to_string(hit->answer.spares) +
                     " spares, outside the registry band");
  }
}

/// Registry deltas of each cell evaluated in the traced phase.
struct StageDeltas {
  std::vector<double> fill_ms, curves_ms, search_ms, mc_ms;
  std::vector<double> mc_samples, guide_hits;
  std::int64_t scans = 0, guide_total = 0;

  void record(const Sample& d) {
    fill_ms.push_back(static_cast<double>(d.fill_ns) / 1e6);
    curves_ms.push_back(static_cast<double>(d.curves_ns) / 1e6);
    search_ms.push_back(static_cast<double>(d.search_ns) / 1e6);
    mc_ms.push_back(static_cast<double>(d.mc_ns) / 1e6);
    mc_samples.push_back(static_cast<double>(d.mc_samples));
    guide_hits.push_back(static_cast<double>(d.guide_hits));
    scans += d.scans;
    guide_total += d.guide_hits;
  }

  /// Per-cell medians into the per-layer values.
  void report(std::map<std::string, double>& v) const {
    v["core.search_ms"] = median(search_ms);
    v["arch.fill_ms"] = median(fill_ms);
    v["arch.curves_ms"] = median(curves_ms);
    v["stats.mc_ms"] = median(mc_ms);
    v["stats.mc_samples"] = median(mc_samples);
    v["stats.quantile_draws"] = median(guide_hits);
    v["stats.quantile_scan_ratio"] =
        guide_total > 0
            ? static_cast<double>(scans) / static_cast<double>(guide_total)
            : 0.0;
  }
};

struct Phase {
  OpLog latency;  ///< Classes are cell indices.
  double peak_rss_mb = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  Sample delta;
};

class Table1Run {
 public:
  Table1Run(const Options& options, Report& report)
      : options_(options), report_(report), order_(options.seed) {}

  void run();

 private:
  void setup();
  Phase timed(double seconds, Tracer* tracer);
  /// Evaluates one cell, checks its bytes and, when traced, replays it;
  /// returns when it ended [s, now_s() clock].
  double op(Phase& ph, double t0, Tracer* tracer);
  void replay(const CellRef& ref, Tracer& tracer, std::int64_t op);

  const Options& options_;
  Report& report_;
  std::vector<int> cpus_ = allowed_cpus();
  CellOrder order_;
  std::vector<CellRef> refs_;
  std::vector<double> setup_s_;
  Sample setup_delta_;
  StageDeltas deltas_;
  std::int64_t replay_mismatches_ = 0;
  std::int64_t next_op_ = 0;
};

void Table1Run::setup() {
  for (const Cell& cell : table1_cells()) {
    CellRef ref;
    ref.cell = cell;
    ref.text = cell_request(cell);
    const svc::ParseResult parsed = svc::parse_request(ref.text);
    if (!parsed.ok) {
      report_.check(false, "cell request rejected: " + parsed.message);
      return;
    }
    ref.request = parsed.request;
    refs_.push_back(std::move(ref));
  }
  // Each set-up pass evaluates every distinct cell once from a cold
  // distribution cache, pass p on CPU p of cpus_ (cycling); the reported
  // set-up time is the median pass.
  const int passes = options_.trace ? 1 : 5;
  for (int pass = 0; pass < passes; ++pass) {
    move_process_to(cpus_[pass % cpus_.size()]);
    if (pass > 0) {
      ntv::device::clear_distribution_cache();
      malloc_trim(0);  // Start each pass from a released heap.
    }
    const Sample s0 = Sample::take();
    const double t0 = now_s();
    for (CellRef& ref : refs_) {
      const svc::EngineResult r = parse_and_evaluate(ref.text, nullptr, -1);
      report_.check(r.ok, "set-up cell " + cell_label(ref.cell) + " failed: " +
                              r.error);
      if (pass == 0) {
        ref.results = r.results;
        report_.check(read_point(r.results, &ref.answer) &&
                          ref.answer.spares >= 0,
                      "unreadable results for " + cell_label(ref.cell));
      } else {
        report_.check(r.results == ref.results,
                      "set-up pass " + std::to_string(pass) +
                          " changed the bytes of " + cell_label(ref.cell));
      }
    }
    setup_s_.push_back(now_s() - t0);
    if (pass == 0) setup_delta_ = Sample::take() - s0;
  }
  check_digests(options_.digests, refs_, report_);
  check_bands(refs_, report_);
}

Phase Table1Run::timed(double seconds, Tracer* tracer) {
  Phase ph;
  ph.latency.reserve(4096);
  const Sample s0 = Sample::take();
  const double c0 = cpu_s();
  const double t0 = now_s();
  // Window w of OpLog::windowed runs on CPU w of cpus_ (cycling), as in
  // serve_mixed.
  double end = t0;
  for (int w = 0; w < OpLog::kWindows; ++w) {
    move_process_to(cpus_[w % cpus_.size()]);
    const double window_end = t0 + seconds * (w + 1) / OpLog::kWindows;
    while (end < window_end) end = op(ph, t0, tracer);
  }
  ph.wall_s = end - t0;
  ph.cpu_s = cpu_s() - c0;
  ph.delta = Sample::take() - s0;
  ph.peak_rss_mb = peak_rss_mb();
  return ph;
}

double Table1Run::op(Phase& ph, double t0, Tracer* tracer) {
  const std::size_t cell = order_.next();
  const CellRef& ref = refs_[cell];
  const std::int64_t id = next_op_++;
  const Sample before = tracer ? Sample::take() : Sample{};
  const double start = now_s();
  svc::EngineResult r;
  {
    ScopedSpan span(tracer, "op", id);
    r = parse_and_evaluate(ref.text, tracer, id);
  }
  double end = now_s();
  ph.latency.add((end - start) * 1e3, cell, end - t0);
  ++ph.attempted;
  const bool ok = r.ok && r.results == ref.results;
  if (!ok) ++ph.failed;
  if (tracer) {
    deltas_.record(Sample::take() - before);
    {
      ScopedSpan span(tracer, "replay", id);
      replay(ref, *tracer, id);
    }
    end = now_s();
  }
  return end;
}

/// Re-derives the cell through the public entry points the engine calls,
/// on a fresh core::MitigationStudy with the engine's seed and budget:
/// the nominal sign-off (`core.reference`) and the sizing
/// (`core.spares`). The spare count must equal the engine's.
void Table1Run::replay(const CellRef& ref, Tracer& tracer, std::int64_t op) {
  const svc::AnalysisRequest& req = ref.request;
  const auto& node = ntv::device::node_by_name(req.node);
  ntv::core::MitigationConfig config;
  config.seed = req.seed;
  config.chip_samples = req.samples;
  const ntv::core::MitigationStudy study(node, config);
  {
    ScopedSpan span(&tracer, "core.reference", op);
    (void)study.chip_delay_p99(node.nominal_vdd);
  }
  ntv::core::DuplicationResult sized;
  {
    ScopedSpan span(&tracer, "core.spares", op);
    sized = study.required_spares(ref.cell.vdd, kMaxSpares);
  }
  if (sized.spares != ref.answer.spares ||
      sized.feasible != ref.answer.feasible) {
    ++replay_mismatches_;
  }
}

void Table1Run::run() {
  if (cpus_.empty()) {
    report_.check(false, "cannot read the CPUs this process may use");
    return;
  }
  // The caller runs every parallel_for chunk itself on an inline pool,
  // so an op never waits for a worker on another virtual CPU
  // (NOTES.md#why-the-workloads-look-like-this).
  const int pool = 1;
  ntv::exec::ThreadPool::set_global_thread_count(pool);
  report_.provenance.emplace_back("pool_threads", std::to_string(pool));
  report_.provenance.emplace_back("clients", "1 in-process caller");
  report_.provenance.emplace_back(
      "cpus", cpu_list(cpus_) + " (one per window and set-up pass)");

  Tracer tracer;
  const Sample before_setup = Sample::take();
  if (options_.trace) {
    std::vector<std::pair<std::string, double>> points;
    for (const Cell& cell : table1_cells()) {
      points.emplace_back(cell.node, cell.vdd);
      points.emplace_back(cell.node,
                          ntv::device::node_by_name(cell.node).nominal_vdd);
    }
    trace_sampler_builds(points, tracer);
  }
  setup();
  if (!report_.errors.empty()) return;
  if (options_.trace) setup_delta_ = Sample::take() - before_setup;

  const double untraced_s = options_.trace ? options_.seconds / 2.0
                                           : options_.seconds;
  const Phase plain = timed(untraced_s, nullptr);
  report_.attempted += plain.attempted;
  report_.failed += plain.failed;
  report_.check(plain.delta.computed == plain.attempted,
                "service.computed moved by " +
                    std::to_string(plain.delta.computed) + " over " +
                    std::to_string(plain.attempted) + " evaluations");

  // Every cell is its own op class.
  for (std::size_t c = 0; c < refs_.size(); ++c) {
    const int cls = static_cast<int>(c);
    report_.classes.push_back(
        {cell_label(refs_[c].cell),
         static_cast<double>(plain.latency.count(cls)) /
             static_cast<double>(plain.attempted),
         median(plain.latency.values(cls))});
  }
  const std::vector<double> lat = plain.latency.values();
  report_.percentiles = {50, 90};

  if (!options_.trace) {
    auto& m = report_.metrics;
    const OpLog::Windowed w = plain.latency.windowed(plain.wall_s);
    const double ok_share =
        static_cast<double>(plain.attempted - plain.failed) /
        static_cast<double>(plain.attempted);
    report_.add(m, "ops_per_s", "1/s", w.ops_per_s * ok_share);
    report_.add(m, "latency_p50_ms", "ms", w.p50_ms);
    report_.add(m, "latency_p90_ms", "ms", w.p90_ms);
    report_.add(m, "setup_s", "s", median(setup_s_));
    report_.add(m, "peak_rss_mb", "MB", plain.peak_rss_mb);
    report_.add(m, "cpu_ms_per_op", "ms",
                plain.cpu_s * 1e3 / static_cast<double>(plain.attempted));
    report_.add(report_.extra, "ops", "count",
                static_cast<double>(plain.attempted));
    report_.add(report_.extra, "phase_ops_per_s", "1/s",
                static_cast<double>(plain.attempted - plain.failed) /
                    plain.wall_s);
    report_.add(report_.extra, "phase_latency_p90_ms", "ms",
                percentile(lat, 90));
    report_.add(report_.extra, "dist_builds_timed", "count",
                static_cast<double>(plain.delta.dist_builds));
    return;
  }

  const Phase traced = timed(options_.seconds / 2.0, &tracer);
  report_.attempted += traced.attempted;
  report_.failed += traced.failed + replay_mismatches_;
  report_.check(replay_mismatches_ == 0,
                std::to_string(replay_mismatches_) +
                    " replays disagreed with the engine");

  const std::vector<Span> spans = tracer.spans();
  std::map<std::string, double> v;
  v["service.parse_us"] = span_median(spans, "service.parse", 1e3);
  v["service.evaluate_ms"] = span_median(spans, "service.evaluate", 1e6);
  v["service.computed"] = static_cast<double>(plain.delta.computed);
  v["service.failed"] = static_cast<double>(
      plain.delta.errors + plain.delta.overloads + plain.delta.timeouts);
  v["core.reference_ms"] = span_median(spans, "core.reference", 1e6);
  v["core.spares_ms"] = span_median(spans, "core.spares", 1e6);
  deltas_.report(v);
  v["device.build_ms"] = span_median(spans, "device.build", 1e6);
  v["device.dist_builds"] =
      static_cast<double>(plain.delta.dist_builds + traced.delta.dist_builds);
  v["device.dist_builds_setup"] = static_cast<double>(setup_delta_.dist_builds);
  v["device.dist_cache_entries"] = dist_cache_entries();

  std::map<std::string, double> overhead;
  const std::vector<double> traced_lat = traced.latency.values();
  overhead["untraced_latency_p50_ms"] = percentile(lat, 50);
  overhead["traced_latency_p50_ms"] = percentile(traced_lat, 50);
  overhead["untraced_latency_p90_ms"] = percentile(lat, 90);
  overhead["traced_latency_p90_ms"] = percentile(traced_lat, 90);
  v["trace.overhead_pct"] = 100.0 * (overhead["traced_latency_p50_ms"] /
                                         overhead["untraced_latency_p50_ms"] -
                                     1.0);
  finish_trace(options_, spans, v, overhead, report_);
  report_.trace_spans = spans;
}

}  // namespace

void run_table1_mc(const Options& options, Report& report) {
  Table1Run(options, report).run();
}

}  // namespace ntvbench
