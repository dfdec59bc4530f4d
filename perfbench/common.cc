#include "common.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <thread>

#include "core/mitigation.h"
#include "device/tech_node.h"
#include "harness/json.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace ntvbench {

std::int64_t OpLog::count(int cls) const {
  if (cls < 0) return static_cast<std::int64_t>(ms_.size());
  return std::count(cls_.begin(), cls_.end(), cls);
}

std::vector<double> OpLog::values(int cls) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < ms_.size(); ++i) {
    if (cls < 0 || cls_[i] == cls) out.push_back(ms_[i]);
  }
  return out;
}

OpLog::Windowed OpLog::windowed(double phase_s) const {
  const double width = phase_s / kWindows;
  std::vector<double> ms[kWindows];
  double last[kWindows] = {};
  for (std::size_t i = 0; i < ms_.size(); ++i) {
    const int w = std::min(kWindows - 1, static_cast<int>(done_s_[i] / width));
    ms[w].push_back(ms_[i]);
    last[w] = std::max(last[w], static_cast<double>(done_s_[i]));
  }
  std::vector<double> rate, p50, p90;
  double previous = 0.0;
  for (int w = 0; w < kWindows; ++w) {
    if (ms[w].empty() || !(last[w] > previous)) continue;
    rate.push_back(static_cast<double>(ms[w].size()) / (last[w] - previous));
    previous = last[w];
    p50.push_back(percentile(ms[w], 50));
    p90.push_back(percentile(ms[w], 90));
  }
  return {median(rate), median(p50), median(p90)};
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double h = (static_cast<double>(values.size()) - 1.0) * p / 100.0;
  const std::size_t lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

HostTicks HostTicks::take() {
  // cpu  user nice system idle iowait irq softirq steal ...
  std::ifstream in("/proc/stat");
  std::string label;
  double fields[8] = {};
  in >> label;
  for (double& f : fields) in >> f;
  HostTicks t;
  if (!in || label != "cpu") return t;
  for (const double f : fields) t.total += f;
  t.steal = fields[7];
  return t;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM is the peak of this process image alone. ru_maxrss would also
  // carry the RSS of whatever process forked this one (Linux keeps the
  // larger of the two across exec), which dominates a small workload.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

int hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (const int cpu : cpus) {
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
  }
  return out;
}

void move_process_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
  if (DIR* tasks = opendir("/proc/self/task")) {
    while (const dirent* task = readdir(tasks)) {
      const int tid = std::atoi(task->d_name);
      if (tid > 0) sched_setaffinity(tid, sizeof one, &one);
    }
    closedir(tasks);
  }
}

Sample Sample::take() {
  namespace obs = ntv::obs;
  static obs::Timer& fill = obs::timer("mitigation.fill.wall");
  static obs::Timer& curves = obs::timer("mitigation.curves.wall");
  static obs::Timer& search = obs::timer("mitigation.search.wall");
  static obs::Timer& mc = obs::timer("mc.wall");
  static obs::Counter& mc_samples = obs::counter("mc.samples");
  static obs::ShardedCounter& guide_hits =
      obs::sharded_counter("stats.quantile.guide_hits");
  static obs::ShardedCounter& scans =
      obs::sharded_counter("stats.quantile.scans");
  static obs::Counter& tasks = obs::counter("exec.tasks");
  static obs::Timer& busy = obs::timer("exec.busy");
  static obs::Counter& interactive = obs::counter("exec.interactive_tasks");
  static obs::Counter& builds = obs::counter("device.dist_cache.builds");
  static obs::Counter& requests = obs::counter("service.requests");
  static obs::Counter& hits = obs::counter("service.cache.hits");
  static obs::Counter& computed = obs::counter("service.computed");
  static obs::Counter& errors = obs::counter("service.errors");
  static obs::Counter& overloads = obs::counter("service.overloads");
  static obs::Counter& timeouts = obs::counter("service.timeouts");
  Sample s;
  s.fill_ns = fill.total_ns();
  s.curves_ns = curves.total_ns();
  s.search_ns = search.total_ns();
  s.mc_ns = mc.total_ns();
  s.mc_samples = mc_samples.value();
  s.guide_hits = guide_hits.value();
  s.scans = scans.value();
  s.tasks = tasks.value();
  s.busy_ns = busy.total_ns();
  s.interactive_tasks = interactive.value();
  s.dist_builds = builds.value();
  s.requests = requests.value();
  s.hits = hits.value();
  s.computed = computed.value();
  s.errors = errors.value();
  s.overloads = overloads.value();
  s.timeouts = timeouts.value();
  return s;
}

Sample Sample::operator-(const Sample& o) const {
  Sample d;
  d.fill_ns = fill_ns - o.fill_ns;
  d.curves_ns = curves_ns - o.curves_ns;
  d.search_ns = search_ns - o.search_ns;
  d.mc_ns = mc_ns - o.mc_ns;
  d.mc_samples = mc_samples - o.mc_samples;
  d.guide_hits = guide_hits - o.guide_hits;
  d.scans = scans - o.scans;
  d.tasks = tasks - o.tasks;
  d.busy_ns = busy_ns - o.busy_ns;
  d.interactive_tasks = interactive_tasks - o.interactive_tasks;
  d.dist_builds = dist_builds - o.dist_builds;
  d.requests = requests - o.requests;
  d.hits = hits - o.hits;
  d.computed = computed - o.computed;
  d.errors = errors - o.errors;
  d.overloads = overloads - o.overloads;
  d.timeouts = timeouts - o.timeouts;
  return d;
}

double dist_cache_entries() {
  return ntv::obs::gauge("device.dist_cache.entries").value();
}

bool read_point(const std::string& results, PointAnswer* out) {
  const auto doc = ntv::harness::JsonValue::parse(results);
  if (!doc) return false;
  const auto* points = doc->find("points");
  if (!points || points->items().size() != 1) return false;
  const auto& point = points->items()[0];
  const auto* spares = point.find("spares");
  const auto* feasible = point.find("feasible");
  const auto* drop = point.find("drop_pct");
  if (spares && feasible) {
    out->spares = static_cast<int>(spares->as_number(-1.0));
    out->feasible = feasible->as_bool();
    return true;
  }
  if (drop) {
    out->drop_pct = drop->as_number(0.0);
    return true;
  }
  return false;
}

std::vector<std::string> placement_violations(
    std::vector<ClassStat> classes, const std::vector<double>& percentiles) {
  std::sort(classes.begin(), classes.end(),
            [](const ClassStat& a, const ClassStat& b) {
              return a.median < b.median;
            });
  std::vector<std::string> out;
  double boundary = 0.0;
  for (std::size_t i = 0; i + 1 < classes.size(); ++i) {
    boundary += 100.0 * classes[i].share;
    if (classes[i + 1].median <= 2.0 * classes[i].median) continue;
    for (const double p : percentiles) {
      if (std::fabs(p - boundary) < 5.0) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "p%g lies %.1f points from the %s|%s boundary at %.1f",
                      p, std::fabs(p - boundary), classes[i].name.c_str(),
                      classes[i + 1].name.c_str(), boundary);
        out.emplace_back(buf);
      }
    }
  }
  return out;
}

const std::vector<LayerMetricDef>& layer_metrics() {
  static const std::vector<LayerMetricDef> defs = {
      {"service.parse_us", "us", "span around service::parse_request",
       "latency_p50_ms / serve_mixed"},
      {"service.cache_probe_us", "us",
       "span around Service::cache().get(key) for hot requests",
       "latency_p50_ms / serve_mixed"},
      {"service.wire_us", "us",
       "BlockingClient::call of a hit minus in-process "
       "Service::handle_request_text of the same hit",
       "latency_p50_ms / serve_mixed"},
      {"service.queue_wait_us", "us",
       "round trip of an interactive miss minus median wire, its parse "
       "and its evaluate (derived)",
       "latency_p90_ms, latency_p99_ms / serve_mixed"},
      {"service.evaluate_ms", "ms",
       "span around service::evaluate: the cell (table1_mc), the replayed "
       "interactive miss (serve_mixed)",
       "latency_p50_ms / table1_mc; latency_p90_ms / serve_mixed"},
      {"service.hit_ratio", "ratio",
       "service.cache.hits / service.requests, untraced phase",
       "ops_per_s / serve_mixed"},
      {"service.computed", "count",
       "service.computed delta, untraced phase; equals the distinct "
       "misses (serve_mixed), the cells evaluated (table1_mc)",
       "ops_per_s / serve_mixed"},
      {"service.failed", "count",
       "service.errors + service.overloads + service.timeouts deltas",
       "failure share / serve_mixed"},
      {"core.reference_ms", "ms",
       "span around MitigationStudy::chip_delay_p99(nominal_vdd)",
       "ops_per_s / table1_mc"},
      {"core.spares_ms", "ms",
       "span around MitigationStudy::required_spares(vdd)",
       "latency_p50_ms / table1_mc"},
      {"core.search_ms", "ms", "mitigation.search.wall delta per MC cell",
       "latency_p50_ms / table1_mc"},
      {"arch.fill_ms", "ms", "mitigation.fill.wall delta per MC cell",
       "ops_per_s, cpu_ms_per_op / table1_mc"},
      {"arch.curves_ms", "ms", "mitigation.curves.wall delta per MC cell",
       "ops_per_s / table1_mc"},
      {"stats.mc_ms", "ms", "mc.wall delta per MC cell",
       "ops_per_s / table1_mc"},
      {"stats.mc_samples", "count", "mc.samples delta per MC cell (exact)",
       "none: a speed-only change leaves it fixed"},
      {"stats.quantile_draws", "count",
       "stats.quantile.guide_hits delta per MC cell (exact)",
       "cpu_ms_per_op / table1_mc"},
      {"stats.quantile_scan_ratio", "ratio",
       "stats.quantile.scans / stats.quantile.guide_hits",
       "cpu_ms_per_op / table1_mc"},
      {"device.build_ms", "ms",
       "span around the first MitigationStudy::sampler(vdd) per distinct "
       "(node, Vdd) in set-up",
       "setup_s / table1_mc, serve_mixed"},
      {"device.dist_builds", "count",
       "device.dist_cache.builds delta over the timed phases",
       "setup_s / table1_mc, serve_mixed (must stay 0)"},
      {"device.dist_builds_setup", "count",
       "device.dist_cache.builds delta over one set-up",
       "setup_s / table1_mc, serve_mixed"},
      {"device.dist_cache_entries", "count",
       "device.dist_cache.entries gauge at the end of the run",
       "peak_rss_mb / serve_mixed, table1_mc"},
      {"ssta.fit_us", "us",
       "span around AnalyticChipStudy::path_law(vdd) on a fresh instance",
       "latency_p90_ms / serve_mixed"},
      {"ssta.invert_us", "us",
       "span around AnalyticChipStudy::signoff_delay(nominal, 99, 0)",
       "latency_p90_ms / serve_mixed"},
      {"ssta.spares_us", "us",
       "span around AnalyticChipStudy::required_spares(vdd, target, 99)",
       "latency_p90_ms / serve_mixed"},
      {"exec.tasks", "count",
       "exec.tasks delta per miss, untraced phase (table1_mc's inline pool "
       "runs its chunks without tasks)",
       "latency_p90_ms / serve_mixed"},
      {"exec.steals", "count",
       "not measured: table1_mc's pool is inline and serve_mixed's one "
       "worker has no deque to steal from",
       "none at these pool sizes"},
      {"exec.utilization", "ratio",
       "exec.busy / (untraced wall x pool threads), serve_mixed",
       "latency_p90_ms / serve_mixed"},
      {"exec.interactive_tasks", "count",
       "exec.interactive_tasks delta, untraced phase",
       "latency_p90_ms / serve_mixed"},
      {"trace.overhead_pct", "%",
       "traced minus untraced latency_p50_ms, as a share of the untraced",
       "none: the cost of tracing itself"},
  };
  return defs;
}

void trace_sampler_builds(
    const std::vector<std::pair<std::string, double>>& points,
    Tracer& tracer) {
  std::set<std::pair<std::string, double>> built;
  for (const auto& point : points) {
    if (!built.insert(point).second) continue;
    const ntv::core::MitigationStudy study(
        ntv::device::node_by_name(point.first));
    ScopedSpan span(&tracer, "device.build", -1);
    (void)study.sampler(point.second);
  }
}

double span_median(const std::vector<Span>& spans, const char* name,
                   double unit_ns) {
  std::vector<double> d;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == name) {
      d.push_back(static_cast<double>(s.duration_ns()) / unit_ns);
    }
  }
  return median(std::move(d));
}

void finish_trace(const Options& options, const std::vector<Span>& spans,
                  const std::map<std::string, double>& values,
                  const std::map<std::string, double>& overhead,
                  Report& report) {
  ntv::obs::JsonWriter w;
  w.begin_object();
  w.key("workload").value(options.workload);
  w.key("seed").value(static_cast<std::uint64_t>(options.seed));
  w.key("overhead").begin_object();
  for (const auto& [k, v] : overhead) w.key(k).value(v);
  w.end_object();

  w.key("layers").begin_array();
  for (const LayerMetricDef& def : layer_metrics()) {
    const auto it = values.find(def.name);
    const bool measured = it != values.end();
    const double value = measured ? it->second : 0.0;
    report.add(report.metrics, def.name, def.unit, value);
    w.begin_object();
    w.key("name").value(def.name);
    w.key("unit").value(def.unit);
    w.key("value").value(value);
    w.key("measured").value(measured);
    w.key("measured_as").value(def.measured_as);
    w.key("should_move").value(def.should_move);
    w.end_object();
  }
  w.end_array();

  const auto tree = Tracer::tree(spans);
  std::map<std::string, double> layer_self_ms;
  w.key("span_tree").begin_array();
  for (const auto& [path, stats] : tree) {
    const std::string leaf = path.substr(path.rfind('/') + 1);
    layer_self_ms[leaf.substr(0, leaf.find('.'))] +=
        static_cast<double>(stats.self_ns) / 1e6;
    w.begin_object();
    w.key("path").value(path);
    w.key("count").value(static_cast<std::int64_t>(stats.count));
    w.key("total_ms").value(static_cast<double>(stats.total_ns) / 1e6);
    w.key("self_ms").value(static_cast<double>(stats.self_ns) / 1e6);
    w.end_object();
  }
  w.end_array();
  w.key("layer_self_ms").begin_object();
  for (const auto& [layer, ms] : layer_self_ms) w.key(layer).value(ms);
  w.end_object();
  w.key("spans").value(static_cast<std::uint64_t>(spans.size()));
  w.end_object();
  report.trace_json = w.str();
}

}  // namespace ntvbench
