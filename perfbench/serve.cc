// serve_mixed: an in-process daemon (service::Service + service::Server)
// loaded over loopback by one closed-loop interactive client
// (NOTES.md#workloads).
#include <malloc.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "common.h"
#include "device/dist_cache.h"
#include "device/tech_node.h"
#include "device/variation.h"
#include "exec/thread_pool.h"
#include "service/client.h"
#include "service/engine.h"
#include "service/request.h"
#include "service/server.h"
#include "service/service.h"
#include "ssta/analytic_backend.h"
#include "workloads.h"

namespace ntvbench {

namespace {

namespace svc = ntv::service;

bool ok_envelope(const std::string& response) {
  return response.rfind(R"({"schema_version":1,"status":"ok")", 0) == 0;
}

/// The success envelope ends with the engine's results fragment.
bool carries_results(const std::string& response, const std::string& results) {
  const std::string tail = "\"results\":" + results + "}";
  return response.size() >= tail.size() &&
         response.compare(response.size() - tail.size(), tail.size(), tail) ==
             0;
}

/// Replays the closed-form stages of one analytic miss on a fresh
/// ssta::AnalyticChipStudy, each under a span, the way
/// core::MitigationStudy combines them: the path-law fits at the nominal
/// and the miss Vdd (`ssta.fit`), the nominal sign-off inversion
/// (`ssta.invert`), then either the sizing probe (`ssta.spares`) or the
/// inversion at the miss Vdd and the normalized drop (`ssta.drop`).
PointAnswer replay_ssta(const svc::AnalysisRequest& request, Tracer& tracer,
                        std::int64_t op) {
  const auto& node = ntv::device::node_by_name(request.node);
  const double nominal = node.nominal_vdd;
  const double vdd = request.vdd_grid.front();
  const ntv::ssta::AnalyticChipStudy fresh{ntv::device::VariationModel(node)};
  {
    ScopedSpan span(&tracer, "ssta.fit", op);
    (void)fresh.path_law(nominal);
  }
  {
    ScopedSpan span(&tracer, "ssta.fit", op);
    (void)fresh.path_law(vdd);
  }
  double reference = 0.0;
  {
    ScopedSpan span(&tracer, "ssta.invert", op);
    reference = fresh.signoff_delay(nominal, kSignoff, 0);
  }
  const double at_nominal = reference / fresh.fo4_unit(nominal);
  PointAnswer answer;
  if (request.command == svc::Command::kSpares) {
    ScopedSpan span(&tracer, "ssta.spares", op);
    answer.spares = fresh.required_spares(vdd, at_nominal * fresh.fo4_unit(vdd),
                                          kSignoff, kMaxSpares);
    answer.feasible = answer.spares <= kMaxSpares;
  } else {
    ScopedSpan span(&tracer, "ssta.drop", op);
    const double at_vdd =
        fresh.signoff_delay(vdd, kSignoff, 0) / fresh.fo4_unit(vdd);
    answer.drop_pct = 100.0 * (at_vdd - at_nominal) / at_nominal;
  }
  return answer;
}

/// A running daemon and its client connection.
struct Daemon {
  std::unique_ptr<svc::Service> service;
  std::unique_ptr<svc::Server> server;
  svc::BlockingClient client;

  bool start() {
    service = std::make_unique<svc::Service>(svc::Service::Options{});
    server = std::make_unique<svc::Server>(*service, svc::Server::Options{});
    return server->start() && client.connect(server->port());
  }
  ~Daemon() {
    client.close();
    if (server) server->stop();
    if (service) service->drain();
  }
};

/// One miss of the traced phase: its wire round trip and the in-process
/// parse and evaluate of the same request.
struct MissTiming {
  double round_trip_us, parse_us, evaluate_us;
};

/// What the client saw in one timed phase.
struct Phase {
  OpLog latency;  ///< Classes are OpClass values.
  std::int64_t attempted = 0, failed = 0, misses = 0, replays = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  Sample delta;
  std::vector<double> wire_us;
  std::vector<MissTiming> miss_timings;
};

class ServeRun {
 public:
  ServeRun(const Options& options, Report& report)
      : options_(options), report_(report), stream_(options.seed) {}

  void run();

 private:
  void setup(Tracer* tracer);
  Phase timed(double seconds, Tracer* tracer);
  /// Sends one op, checks its answer and, when traced, replays it.
  void op(Phase& ph, double t0, Tracer* tracer);

  const Options& options_;
  Report& report_;
  std::vector<int> cpus_ = allowed_cpus();
  InteractiveStream stream_;
  std::unique_ptr<Daemon> daemon_;
  std::vector<std::string> hot_results_;  ///< Set-up bytes per hot entry.
  std::vector<double> setup_s_;
  Sample setup_delta_;
  std::int64_t next_op_ = 0;
};

void ServeRun::setup(Tracer* tracer) {
  const auto& hot = hot_set();
  const int passes = tracer ? 1 : 5;
  for (int pass = 0; pass < passes; ++pass) {
    // Each pass starts a fresh daemon on a cold distribution cache.
    daemon_.reset();
    if (pass > 0) {
      ntv::device::clear_distribution_cache();
      malloc_trim(0);  // Start each pass from a released heap.
    }
    const Sample s0 = Sample::take();
    const double t0 = now_s();
    if (tracer) {
      std::vector<std::pair<std::string, double>> points;
      for (const std::string& text : hot) {
        const svc::ParseResult p = svc::parse_request(text);
        if (!p.ok || p.request.interactive()) continue;
        const double nominal =
            ntv::device::node_by_name(p.request.node).nominal_vdd;
        for (const double v : p.request.vdd_grid) {
          points.emplace_back(p.request.node, v);
        }
        points.emplace_back(p.request.node, nominal);
      }
      trace_sampler_builds(points, *tracer);
    }
    daemon_ = std::make_unique<Daemon>();
    if (!daemon_->start()) {
      report_.check(false, "daemon failed to start or accept the client");
      return;
    }
    for (std::size_t i = 0; i < hot.size(); ++i) {
      const auto r = daemon_->client.call(hot[i]);
      const bool ok = r && ok_envelope(*r);
      report_.check(ok, "hot request " + std::to_string(i) + " failed");
      if (!ok) return;
      if (pass == 0) {
        hot_results_.push_back(*r);
      } else {
        report_.check(*r == hot_results_[i],
                      "hot request " + std::to_string(i) +
                          " changed bytes between set-up passes");
      }
    }
    setup_s_.push_back(now_s() - t0);
    if (pass == 0) setup_delta_ = Sample::take() - s0;
  }
}

void ServeRun::op(Phase& ph, double t0, Tracer* tracer) {
  svc::Service& service = *daemon_->service;
  const Op op = stream_.next();
  const std::int64_t id = next_op_++;
  const double start = now_s();
  std::optional<std::string> response;
  {
    ScopedSpan span(tracer, "op", id);
    response = daemon_->client.call(op.text);
  }
  const double end = now_s();
  ++ph.attempted;
  ph.wall_s = end - t0;
  ph.latency.add((end - start) * 1e3, static_cast<std::size_t>(op.cls),
                 end - t0);
  if (op.cls == OpClass::kMiss) ++ph.misses;
  if (!response) {
    ++ph.failed;
    return;
  }
  bool ok = op.cls == OpClass::kHit ? *response == hot_results_[op.hot]
                                    : ok_envelope(*response);
  if (tracer) {
    ScopedSpan replay(tracer, "replay", id);
    svc::ParseResult parsed;
    const double p0 = now_s();
    {
      ScopedSpan span(tracer, "service.parse", id);
      parsed = svc::parse_request(op.text);
    }
    const double parse_us = (now_s() - p0) * 1e6;
    if (op.cls == OpClass::kHit) {
      std::optional<std::string> cached;
      {
        ScopedSpan span(tracer, "service.cache_probe", id);
        cached = service.cache().get(parsed.key);
      }
      const double h0 = now_s();
      std::string again;
      {
        ScopedSpan span(tracer, "service.handle", id);
        again = service.handle_request_text(op.text, "bench");
      }
      const double handle_us = (now_s() - h0) * 1e6;
      ph.wire_us.push_back((end - start) * 1e6 - handle_us);
      ok = ok && cached && *cached == *response && again == *response;
    } else {
      svc::EngineResult r;
      const double e0 = now_s();
      {
        ScopedSpan span(tracer, "service.evaluate", id);
        r = svc::evaluate(parsed.request);
      }
      ph.miss_timings.push_back(
          {(end - start) * 1e6, parse_us, (now_s() - e0) * 1e6});
      ++ph.replays;
      PointAnswer engine;
      const PointAnswer stages = replay_ssta(parsed.request, *tracer, id);
      ok = ok && r.ok && carries_results(*response, r.results) &&
           read_point(r.results, &engine) && stages.spares == engine.spares &&
           stages.feasible == engine.feasible &&
           stages.drop_pct == engine.drop_pct;
    }
  }
  if (!ok) ++ph.failed;
}

Phase ServeRun::timed(double seconds, Tracer* tracer) {
  Phase ph;
  ph.latency.reserve(static_cast<std::size_t>(seconds * 40000.0));
  const Sample s0 = Sample::take();
  const double c0 = cpu_s();
  const double t0 = now_s();
  // Window w of OpLog::windowed runs on CPU w of cpus_ (cycling), so the
  // windowed medians span the VM's CPUs rather than one CPU's state. The
  // phase ends at the first failed op: the run is incorrect from then on,
  // and a lost connection would fail every later op.
  for (int w = 0; w < OpLog::kWindows && ph.failed == 0; ++w) {
    move_process_to(cpus_[w % cpus_.size()]);
    const double window_end = t0 + seconds * (w + 1) / OpLog::kWindows;
    while (now_s() < window_end && ph.failed == 0) op(ph, t0, tracer);
  }
  ph.cpu_s = cpu_s() - c0;
  ph.delta = Sample::take() - s0;
  ph.peak_rss_mb = peak_rss_mb();
  return ph;
}

void ServeRun::run() {
  if (cpus_.empty()) {
    report_.check(false, "cannot read the CPUs this process may use");
    return;
  }
  // Every op's chain of threads shares one CPU at a time: set-up runs on
  // the first allowed CPU, and each timed window moves the process on.
  report_.provenance.emplace_back("cpus",
                                  cpu_list(cpus_) + " (one per window)");
  move_process_to(cpus_.front());
  const int pool = std::min(2, hardware_threads());
  ntv::exec::ThreadPool::set_global_thread_count(pool);
  report_.provenance.emplace_back("pool_threads", std::to_string(pool));
  report_.provenance.emplace_back(
      "clients", "1 interactive, closed-loop over loopback");

  Tracer tracer;
  Tracer* traced = options_.trace ? &tracer : nullptr;
  setup(traced);
  if (!report_.errors.empty()) return;

  const double t_plain = options_.trace ? options_.seconds / 2.0
                                        : options_.seconds;
  const Phase plain = timed(t_plain, nullptr);
  report_.attempted += plain.attempted;
  report_.failed += plain.failed;
  report_.check(plain.delta.computed == plain.misses,
                "service.computed moved by " +
                    std::to_string(plain.delta.computed) + ", expected " +
                    std::to_string(plain.misses) + " distinct misses");

  // Op classes, for the placement check.
  const double total = static_cast<double>(plain.attempted);
  for (const OpClass cls : {OpClass::kHit, OpClass::kMiss}) {
    const int c = static_cast<int>(cls);
    report_.classes.push_back(
        {std::string(to_string(cls)),
         static_cast<double>(plain.latency.count(c)) / total,
         median(plain.latency.values(c))});
  }
  report_.percentiles = {50, 90, 99};
  const std::vector<double> lat = plain.latency.values();

  if (!options_.trace) {
    auto& m = report_.metrics;
    const OpLog::Windowed w = plain.latency.windowed(plain.wall_s);
    const double ok_ops = total - static_cast<double>(plain.failed);
    report_.add(m, "ops_per_s", "1/s", w.ops_per_s * ok_ops / total);
    report_.add(m, "latency_p50_ms", "ms", w.p50_ms);
    report_.add(m, "latency_p90_ms", "ms", w.p90_ms);
    report_.add(m, "setup_s", "s", median(setup_s_));
    report_.add(m, "peak_rss_mb", "MB", plain.peak_rss_mb);
    report_.add(m, "cpu_ms_per_op", "ms", plain.cpu_s * 1e3 / total);
    report_.add(report_.extra, "ops", "count", total);
    report_.add(report_.extra, "phase_ops_per_s", "1/s",
                ok_ops / plain.wall_s);
    report_.add(report_.extra, "phase_latency_p90_ms", "ms",
                percentile(lat, 90));
    report_.add(report_.extra, "latency_p99_ms", "ms", percentile(lat, 99));
    report_.add(report_.extra, "dist_cache_entries", "count",
                dist_cache_entries());
    return;
  }

  const Phase traced_phase = timed(options_.seconds / 2.0, &tracer);
  report_.attempted += traced_phase.attempted;
  report_.failed += traced_phase.failed;
  report_.check(traced_phase.delta.computed ==
                    traced_phase.misses + traced_phase.replays,
                "service.computed moved by " +
                    std::to_string(traced_phase.delta.computed) +
                    " in the traced phase, expected " +
                    std::to_string(traced_phase.misses +
                                   traced_phase.replays));

  const double wire = median(traced_phase.wire_us);
  std::vector<double> queue_wait;
  for (const MissTiming& m : traced_phase.miss_timings) {
    queue_wait.push_back(m.round_trip_us - wire - m.parse_us - m.evaluate_us);
  }
  const std::vector<Span> spans = tracer.spans();
  std::map<std::string, double> v;
  v["service.parse_us"] = span_median(spans, "service.parse", 1e3);
  v["service.cache_probe_us"] = span_median(spans, "service.cache_probe", 1e3);
  v["service.wire_us"] = wire;
  v["service.queue_wait_us"] = median(queue_wait);
  v["service.evaluate_ms"] = span_median(spans, "service.evaluate", 1e6);
  v["service.hit_ratio"] = static_cast<double>(plain.delta.hits) /
                           static_cast<double>(plain.delta.requests);
  v["service.computed"] = static_cast<double>(plain.delta.computed);
  v["service.failed"] = static_cast<double>(
      plain.delta.errors + plain.delta.overloads + plain.delta.timeouts +
      traced_phase.delta.errors + traced_phase.delta.overloads +
      traced_phase.delta.timeouts);
  v["device.build_ms"] = span_median(spans, "device.build", 1e6);
  v["device.dist_builds"] = static_cast<double>(plain.delta.dist_builds +
                                                traced_phase.delta.dist_builds);
  v["device.dist_builds_setup"] = static_cast<double>(setup_delta_.dist_builds);
  v["device.dist_cache_entries"] = dist_cache_entries();
  v["ssta.fit_us"] = span_median(spans, "ssta.fit", 1e3);
  v["ssta.invert_us"] = span_median(spans, "ssta.invert", 1e3);
  v["ssta.spares_us"] = span_median(spans, "ssta.spares", 1e3);
  v["exec.tasks"] = static_cast<double>(plain.delta.tasks) /
                   static_cast<double>(std::max<std::int64_t>(1, plain.misses));
  v["exec.utilization"] = static_cast<double>(plain.delta.busy_ns) / 1e9 /
                          (plain.wall_s * pool);
  v["exec.interactive_tasks"] =
      static_cast<double>(plain.delta.interactive_tasks);

  const std::vector<double> traced_lat = traced_phase.latency.values();
  std::map<std::string, double> overhead;
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

void run_serve_mixed(const Options& options, Report& report) {
  ServeRun(options, report).run();
}

}  // namespace ntvbench
