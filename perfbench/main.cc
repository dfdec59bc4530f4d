// ntvbench: the end-to-end benchmark program (NOTES.md).
//
//   ntvbench --workload table1_mc|serve_mixed --seed N
//            --seconds S --trace 0|1 [--commit SHA] [--out-dir DIR]
//            [--digests FILE]
//   ntvbench --self-test
//
// A run prints a readable summary, writes its result (and, when traced,
// its span tree and spans) under --out-dir, and prints as its last line
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// It exits 1 when any correctness check fails and 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "common.h"
#include "obs/json_writer.h"
#include "simd/simd.h"
#include "workloads.h"

#ifndef NTV_BUILD_TYPE
#define NTV_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ntvbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "ntvbench: %s\n"
               "usage: ntvbench --workload table1_mc|serve_mixed --seed N "
               "--seconds S --trace 0|1\n"
               "                [--commit SHA] [--out-dir DIR] "
               "[--digests FILE]\n"
               "       ntvbench --self-test\n",
               why);
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Stream and mix properties every workload relies on; returns the
/// failures (empty when all hold).
std::vector<std::string> self_test() {
  std::vector<std::string> fails;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) fails.push_back(what);
  };
  constexpr std::size_t kOps = 4000;
  const auto cells = [](std::uint64_t seed) {
    CellOrder order(seed);
    std::string s;
    for (std::size_t i = 0; i < kOps; ++i) {
      s += std::to_string(order.next()) + ",";
    }
    return s;
  };
  const auto interactive = [](std::uint64_t seed) {
    InteractiveStream stream(seed);
    std::string s;
    for (std::size_t i = 0; i < kOps; ++i) s += stream.next().text + "\n";
    return s;
  };
  for (const std::uint64_t seed : {1ULL, 7ULL, 0x5EEDULL}) {
    expect(cells(seed) == cells(seed), "table1 stream not reproducible");
    expect(cells(seed) != cells(seed + 1), "table1 stream ignores the seed");
    expect(interactive(seed) == interactive(seed),
           "interactive stream not reproducible");
    expect(interactive(seed) != interactive(seed + 1),
           "interactive stream ignores the seed");

    // Misses never repeat and never hit the hot set; every block holds
    // exactly kHitsPerBlock hits.
    const std::set<std::string> hot(hot_set().begin(), hot_set().end());
    std::set<std::string> misses;
    std::size_t miss_count = 0;
    InteractiveStream stream(seed);
    std::size_t hits_in_block = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      const Op op = stream.next();
      if (op.cls == OpClass::kHit) {
        ++hits_in_block;
      } else {
        ++miss_count;
        misses.insert(op.text);
        expect(hot.count(op.text) == 0, "a miss names a hot request");
      }
      if ((i + 1) % kMixBlock == 0) {
        expect(hits_in_block == kHitsPerBlock, "hit share is not exact");
        hits_in_block = 0;
      }
    }
    expect(misses.size() == miss_count, "a miss repeats");
  }

  // Placement: serve_mixed's declared mix keeps p50, p90 and p99 clear
  // of its hit|miss boundary even when misses cost far more than hits; a
  // mix with a boundary at p50 is caught.
  const double hit = static_cast<double>(kHitsPerBlock) / kMixBlock;
  expect(placement_violations({{"hit", hit, 0.02}, {"miss", 1.0 - hit, 0.3}},
                              {50, 90, 99})
             .empty(),
         "serve_mixed's mix puts a reported percentile on a class boundary");
  expect(placement_violations({{"cheap", 0.5, 1.0}, {"dear", 0.5, 10.0}},
                              {50, 90})
                 .size() == 1,
         "placement check misses a boundary at p50");
  expect(placement_violations({{"a", 0.5, 1.0}, {"b", 0.5, 1.5}}, {50})
             .empty(),
         "placement check flags classes of similar cost");
  return fails;
}

/// {"<name>": {"value": .., "unit": ".."}, ...}
void write_metrics(ntv::obs::JsonWriter& w, const std::vector<Metric>& ms) {
  w.begin_object();
  for (const Metric& m : ms) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
}

std::string result_json(const Options& o, const Report& r, bool correct) {
  ntv::obs::JsonWriter w;
  w.begin_object();
  w.key("workload").value(o.workload);
  w.key("correct").value(correct);
  w.key("attempted").value(static_cast<std::int64_t>(r.attempted));
  w.key("failed").value(static_cast<std::int64_t>(r.failed));
  w.key("provenance").begin_object();
  for (const auto& [k, v] : r.provenance) w.key(k).value(v);
  w.end_object();
  w.key("metrics");
  write_metrics(w, r.metrics);
  w.key("extra");
  write_metrics(w, r.extra);
  w.key("classes").begin_array();
  for (const ClassStat& c : r.classes) {
    w.begin_object();
    w.key("name").value(c.name);
    w.key("share").value(c.share);
    w.key("median_ms").value(c.median);
    w.end_object();
  }
  w.end_array();
  w.key("errors").begin_array();
  for (const std::string& e : r.errors) w.value(e);
  w.end_array();
  if (!r.trace_json.empty()) w.key("trace").raw(r.trace_json);
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool trace_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      const auto fails = self_test();
      for (const auto& f : fails) {
        std::fprintf(stderr, "self-test: %s\n", f.c_str());
      }
      std::printf("self-test: %s\n", fails.empty() ? "ok" : "FAILED");
      return fails.empty() ? 0 : 1;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("bad --seed");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      o.trace = value == "1";
      trace_set = true;
    } else if (arg == "--commit") {
      o.commit = value;
    } else if (arg == "--out-dir") {
      o.out_dir = value;
    } else if (arg == "--digests") {
      o.digests = value;
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
  }
  if (!trace_set) return usage("--trace is required");
  if (o.workload != "table1_mc" && o.workload != "serve_mixed") {
    return usage("unknown --workload");
  }

  Report report;
  report.provenance = {
      {"nproc", std::to_string(hardware_threads())},
      {"cpu_model", cpu_model()},
      {"simd", std::string(ntv::simd::to_string(ntv::simd::active_backend()))},
      {"build_type", NTV_BUILD_TYPE},
      {"commit", o.commit},
      {"workload", o.workload},
      {"seed", std::to_string(o.seed)},
      {"seconds", std::to_string(o.seconds)},
      {"trace", o.trace ? "1" : "0"},
  };
  for (const std::string& f : self_test()) {
    report.check(false, "self-test: " + f);
  }
  const HostTicks before = HostTicks::take();
  if (report.errors.empty()) {
    if (o.workload == "serve_mixed") {
      run_serve_mixed(o, report);
    } else {
      run_table1_mc(o, report);
    }
  }
  // Time the hypervisor gave other guests while this run wanted a CPU:
  // the host noise under every time metric of the run.
  const HostTicks after = HostTicks::take();
  if (after.total > before.total) {
    char steal[32];
    std::snprintf(steal, sizeof steal, "%.2f",
                  100.0 * (after.steal - before.steal) /
                      (after.total - before.total));
    report.provenance.emplace_back("host_steal_pct", steal);
  }
  for (const Metric& m : report.metrics) {
    report.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }
  for (const std::string& v :
       placement_violations(report.classes, report.percentiles)) {
    report.check(false, "percentile placement: " + v);
  }
  // A run that failed before its timed phase still attempted its set-up.
  report.attempted = std::max<std::int64_t>(report.attempted, 1);
  const bool correct = report.errors.empty() && report.failed == 0;

  // Readable summary.
  std::printf("ntvbench %s seed=%llu trace=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);
  for (const auto& [k, v] : report.provenance) {
    std::printf("  %-14s %s\n", k.c_str(), v.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("  metric  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : report.extra) {
    std::printf("  extra   %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  ops attempted %lld, failed %lld\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (const std::string& e : report.errors) {
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  }

  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  const std::string stem = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0");
  std::ofstream(stem + ".json") << result_json(o, report, correct) << "\n";
  if (o.trace) Tracer::write_tsv(report.trace_spans, stem + ".spans.tsv");
  std::printf("  result  %s.json\n", stem.c_str());

  ntv::obs::JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(static_cast<std::int64_t>(report.attempted));
  w.key("failed").value(static_cast<std::int64_t>(report.failed));
  w.key("metrics");
  write_metrics(w, report.metrics);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
