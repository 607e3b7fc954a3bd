// svgic_perfbench: the repository's benchmark binary.
//
//   svgic_perfbench --workload <paper_batch|serve_resolve|serve_ingest>
//                   --seed N --seconds S --trace <0|1> --work-dir DIR
//
// Runs one workload in this process, checks its outputs, and prints a
// human-readable summary, a `fingerprint` line (the work one round does)
// and, last, one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. perfbench/README.md documents every metric.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"ops_per_s", "1/s"},
    {"solve_p50_ms", "ms"},     {"solve_tail_ms", "ms"},
    {"command_p50_ms", "ms"},   {"utility_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"lp.solve_ms", "ms"},
    {"lp.pivots", "count"},
    {"lp.refactorizations", "count"},
    {"lp.factor_ms", "ms"},
    {"lp.ftran_ms", "ms"},
    {"lp.btran_ms", "ms"},
    {"lp.pricing_ms", "ms"},
    {"lp.ratio_test_ms", "ms"},
    {"lp.presolve_ms", "ms"},
    {"core.build_lp_ms", "ms"},
    {"core.round_ms", "ms"},
    {"core.evaluate_ms", "ms"},
    {"experiments.cache_hit_ratio", "ratio"},
    {"online.apply_ms", "ms"},
    {"online.incremental_share", "ratio"},
    {"serve.codec_us", "us"},
    {"serve.admission_wait_ms", "ms"},
    {"serve.residual_ms", "ms"},
    {"durability.appends", "count"},
    {"durability.fsyncs", "count"},
    {"durability.snapshots", "count"},
    {"durability.fsync_ms", "ms"},
    {"durability.replayed_commands", "count"},
    {"durability.recover_session_ms", "ms"},
    {"datagen.generate_ms", "ms"},
    {"unattributed_ms", "ms"},
    {"trace.ops_ratio", "ratio"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "svgic_perfbench: %s\nusage: svgic_perfbench --workload "
               "<paper_batch|serve_resolve|serve_ingest> --seed N "
               "--seconds S --trace <0|1> --work-dir DIR\n",
               why);
  return 2;
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
      have_seconds = options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seconds) return Usage("--seconds must be positive");
  if (options.work_dir.empty()) return Usage("--work-dir is required");

  RunResult result;
  if (options.workload == "paper_batch") {
    result = RunPaperBatch(options);
  } else if (options.workload == "serve_resolve") {
    result = RunServe(options, /*ingest=*/false);
  } else if (options.workload == "serve_ingest") {
    result = RunServe(options, /*ingest=*/true);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (result.rounds == 0) {
    for (const std::string& why : result.problems) {
      std::fprintf(stderr, "error: %s\n", why.c_str());
    }
    std::fprintf(stderr, "error: no round completed\n");
    return 1;
  }

  std::printf("workload %s seed %llu rounds %d trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), result.rounds,
              options.trace ? 1 : 0);
  for (const std::string& why : result.problems) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  std::string fingerprint = "{";
  for (const auto& [key, count] : result.fingerprint) {
    if (fingerprint.size() > 1) fingerprint += ", ";
    fingerprint += "\"" + key + "\": " + std::to_string(count);
  }
  std::printf("fingerprint %s}\n", fingerprint.c_str());

  std::string metrics;
  bool complete = true;
  auto emit = [&](const MetricDef& def, bool required) {
    auto it = result.metrics.find(def.name);
    if (it == result.metrics.end() && required) {
      std::printf("missing metric %s\n", def.name);
      complete = false;
      return;
    }
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    std::printf("  %-32s %14.6f %s\n", def.name, value, def.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(def.name) + "\": {\"value\": " +
               JsonNumber(value) + ", \"unit\": \"" + def.unit + "\"}";
  };
  if (options.trace) {
    // Layers a workload never reaches read 0.
    for (const MetricDef& def : kPerLayer) emit(def, false);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def, true);
  }
  if (!complete) return 1;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
