// Shared experiment harness used by every bench binary.
//
// RunComparisonNamed() generates `samples` instances per sweep point and
// fans the samples x solvers matrix out through the BatchRunner
// (experiments/batch_runner.h), sharing one LP relaxation per instance
// across the AVG family. Solvers are addressed by registry name
// (solvers/solver_registry.h); a single run is
// `SolverRegistry::Global().Find(name)->Solve(instance, context)`.

#pragma once

#include <string>
#include <vector>

#include "datagen/datasets.h"
#include "metrics/metrics.h"
#include "solvers/solver.h"
#include "solvers/solver_options.h"
#include "util/status.h"

namespace savg {

/// The paper's comparison algorithms, as registry names in its order.
std::vector<std::string> AllAlgoNames(bool include_ip);

/// Aggregated comparison over `samples` generated instances (seed varies).
struct AggregateRow {
  std::string name;  ///< registry name
  double mean_scaled_total = 0.0;
  double mean_seconds = 0.0;
  double mean_preference = 0.0;  ///< scaled preference part
  double mean_social = 0.0;      ///< social part
  SubgroupMetrics mean_subgroup;
  double mean_regret = 0.0;
  std::vector<double> regret_samples;  ///< pooled per-user regrets
};

/// Cross-point warm-start state for sweeps. Holds the final compact-LP
/// basis of every sampled instance after a RunComparisonNamed call; the
/// next call with the same `samples` (e.g. the next lambda of a sweep,
/// which keeps the constraint matrix fixed) seeds its simplex solves from
/// them. Also accumulates the relaxation pivot counters, so benches and
/// tests can compare warm vs cold sweeps.
struct SweepWarmStart {
  std::vector<LpBasis> bases;
  int64_t total_simplex_iterations = 0;
  int64_t warm_started_solves = 0;
  /// Per-phase simplex time accumulated across the sweep's LP solves.
  LpStats lp_stats;
};

/// Registry-name front-end: runs `solvers` over `samples` instances
/// through the parallel BatchRunner. `num_workers` <= 0 uses all cores.
/// `warm_start` (optional) carries relaxation bases across calls.
Result<std::vector<AggregateRow>> RunComparisonNamed(
    const DatasetParams& base_params, int samples,
    const std::vector<std::string>& solvers, const SolverOptions& config,
    int num_workers = 0, SweepWarmStart* warm_start = nullptr);

}  // namespace savg
