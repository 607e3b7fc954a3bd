// Shared plumbing of the svgic_perfbench binary: run options, the result
// every workload hands back to main(), sample statistics, and the output
// checks the benchmark computes on its own (checks.cc) instead of trusting
// the program's evaluators.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/configuration.h"
#include "core/problem.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Measured seconds: whole rounds are started until their timed phases
  /// add up to at least this much.
  double seconds = 10.0;
  bool trace = false;
  /// Working directory inside the checkout (durability data).
  std::string work_dir;
};

/// What a workload run hands back to main().
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run),
  /// by name; main() holds their units.
  std::map<std::string, double> metrics;
  /// Work done by one round. Every round of a run must repeat it exactly;
  /// compare.py requires it to match between two sets of runs.
  std::vector<std::pair<std::string, int64_t>> fingerprint;
  int rounds = 0;
  /// Reasons `correct` is false (printed before the result line).
  std::vector<std::string> problems;

  void Fail(const std::string& why) {
    correct = false;
    if (problems.size() < 20) problems.push_back(why);
  }
};

/// Number of CPUs this process may run on (its affinity mask; at least 1).
int AllowedCpus();

/// Confines the calling thread, and every thread it starts while the guard
/// lives, to the lowest CPU of its current set; restores the set on
/// destruction. Measured rounds run under it: on a virtual machine a
/// hand-off between threads on different vCPUs waits for the host to wake
/// the idle one, which swamped the serve path's own costs and changed from
/// minute to minute, while hand-offs on one CPU are plain context switches.
class OneCpu {
 public:
  OneCpu();
  ~OneCpu();
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t previous_{};
  bool pinned_ = false;
};

/// The count `key` of a fingerprint (0 when absent).
inline int64_t Count(
    const std::vector<std::pair<std::string, int64_t>>& fingerprint,
    const char* key) {
  for (const auto& [name, value] : fingerprint) {
    if (name == key) return value;
  }
  return 0;
}

RunResult RunPaperBatch(const RunOptions& options);
RunResult RunServe(const RunOptions& options, bool ingest);

// --- Statistics -------------------------------------------------------------

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Input seed of item `index` of a run with seed `seed` (splitmix64), so
/// every instance and stream of a run follows from --seed alone.
inline uint64_t DeriveSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Traced rounds' operations per second over untraced rounds': the tracing
/// overhead of a traced run (0 when either kind is missing).
inline double OpsRatio(int64_t traced_ops, double traced_seconds,
                       int64_t untraced_ops, double untraced_seconds) {
  if (traced_seconds <= 0 || untraced_seconds <= 0 || untraced_ops == 0) {
    return 0.0;
  }
  return (double(traced_ops) / traced_seconds) /
         (double(untraced_ops) / untraced_seconds);
}

/// Nanoseconds -> milliseconds.
inline double NsToMs(int64_t nanos) { return static_cast<double>(nanos) / 1e6; }

// --- Independent output checks (checks.cc) ----------------------------------

/// The paper's scaled total (1-lambda)/lambda * R_pref + R_soc recomputed
/// from the raw per-user preferences and per-directed-edge social
/// utilities, without core/objective.
double RecomputeScaledTotal(const savg::SvgicInstance& instance,
                            const savg::Configuration& config);

/// Empty when every user has k distinct valid items in its k slots;
/// otherwise the first violation found.
std::string CheckConfiguration(const savg::SvgicInstance& instance,
                               const savg::Configuration& config);

/// Cold compact LP of `instance`, certified from `SolveLp`'s primal and
/// dual values over the model's rows (no lp/kkt): primal feasibility, dual
/// sign feasibility and a zero gap to the Lagrangian bound. On success
/// `*bound` is that certified bound and `*fractional` whether the optimum
/// is fractional; on failure returns the reason.
std::string CertifiedLpBound(const savg::SvgicInstance& instance,
                             double* bound, bool* fractional);

/// Relative difference |a - b| / max(1, |a|, |b|).
double RelDiff(double a, double b);

}  // namespace perfbench
