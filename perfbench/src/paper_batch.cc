// paper_batch: the paper's offline pipeline. Every round generates the same
// seeded set of Timik, Epinions and Yelp instances and solves each with AVG
// and AVG-D through SolverRegistry + BatchRunner, both roundings sharing one
// cold compact-LP relaxation per instance. The sizes keep every LP on the
// exact simplex path, so the cold LP (lp/simplex, lp/basis_lu) does nearly
// all the work.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "bench.h"
#include "core/avg.h"
#include "core/avg_d.h"
#include "core/lp_formulation.h"
#include "core/objective.h"
#include "datagen/datasets.h"
#include "experiments/batch_runner.h"
#include "lp/simplex.h"
#include "solvers/solver_registry.h"

namespace perfbench {
namespace {

using savg::DatasetKind;
using savg::SvgicInstance;

constexpr DatasetKind kKinds[] = {DatasetKind::kTimik, DatasetKind::kEpinions,
                                  DatasetKind::kYelp};
// 64 instances per dataset: the per-run medians average over enough
// distinct instances to repeat across seeds. 8 users x 16 items x 3 slots
// keeps every LP on the exact simplex path (a few hundred rows).
constexpr int kPerKind = 64;
constexpr int kUsers = 8;
constexpr int kItems = 16;
constexpr int kSlots = 3;

const char* const kSolvers[] = {"AVG", "AVG-D"};

struct InstanceSet {
  std::vector<SvgicInstance> instances;
  std::vector<double> generate_seconds;
};

/// Adds five mutual friends whose ten friendships each carry social utility
/// on an item of their own. Each of them would need four items in three
/// slots, which is what makes an LP optimum fractional; the generated
/// datasets alone (sparse random-walk samples) give integral optima.
void AddFrustratedClique(SvgicInstance* instance, uint64_t seed) {
  const int n = instance->num_users();
  const int m = instance->num_items();
  std::vector<savg::UserId> members;
  for (uint64_t i = 0; members.size() < 5; ++i) {
    const auto u = static_cast<savg::UserId>(DeriveSeed(seed, i) % n);
    if (std::find(members.begin(), members.end(), u) == members.end()) {
      members.push_back(u);
    }
  }
  savg::ItemId item = static_cast<savg::ItemId>(DeriveSeed(seed, 99) % m);
  const savg::SocialGraph& graph = instance->graph();
  for (size_t a = 0; a < members.size(); ++a) {
    for (size_t b = a + 1; b < members.size(); ++b) {
      const savg::UserId u = members[a], v = members[b];
      if (!graph.HasEdge(u, v)) (void)instance->AddFriendship(u, v);
      instance->SetTauValue(graph.FindEdge(u, v), item, 2.0);
      instance->SetTauValue(graph.FindEdge(v, u), item, 2.0);
      item = (item + 1) % m;
    }
  }
  std::vector<savg::UserId> all(n);
  for (int u = 0; u < n; ++u) all[u] = u;
  instance->RefinalizePairs(all);
}

/// The round's instances: generated datasets, every other one with a
/// frustrated clique added.
InstanceSet GenerateSet(uint64_t seed, std::string* error) {
  InstanceSet set;
  for (int i = 0; i < kPerKind * 3; ++i) {
    savg::DatasetParams params;
    params.kind = kKinds[i % 3];
    params.num_users = kUsers;
    params.num_items = kItems;
    params.num_slots = kSlots;
    params.seed = DeriveSeed(seed, i);
    const Clock::time_point start = Clock::now();
    auto instance = savg::GenerateDataset(params);
    if (instance.ok() && i % 2 == 1) {
      AddFrustratedClique(&instance.value(), params.seed);
    }
    set.generate_seconds.push_back(SecondsSince(start));
    if (!instance.ok()) {
      *error = "GenerateDataset: " + instance.status().ToString();
      return set;
    }
    set.instances.push_back(std::move(instance).value());
  }
  return set;
}

/// What one instance's BatchRunner call produced.
struct Solved {
  std::vector<savg::SolverRun> runs;  // one per kSolvers entry
  int64_t pivots = 0;
  int64_t refactorizations = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

/// Per-layer times of one instance, from the benchmark's own timers around
/// direct calls into core/ and lp/.
struct LayerSample {
  double build_lp = 0, solve = 0, round = 0, evaluate = 0;
  savg::LpStats stats;
  int64_t pivots = 0;
};

/// Re-runs the pipeline of one instance module by module (the traced
/// rounds only). The roundings use the batch task seeds, so their totals
/// must equal the batch's.
std::string TraceLayers(const SvgicInstance& instance, uint64_t base_seed,
                        const Solved& solved, LayerSample* out) {
  Clock::time_point start = Clock::now();
  savg::CompactLpMap map;
  auto lp = savg::BuildCompactLp(instance, &map);
  out->build_lp = SecondsSince(start);
  if (!lp.ok()) return lp.status().ToString();

  start = Clock::now();
  auto sol = savg::SolveLp(*lp);
  out->solve = SecondsSince(start);
  if (!sol.ok()) return sol.status().ToString();
  out->stats = sol->stats;
  out->pivots = sol->iterations;

  const int n = instance.num_users();
  const int m = instance.num_items();
  savg::FractionalSolution frac;
  frac.num_users = n;
  frac.num_items = m;
  frac.num_slots = instance.num_slots();
  frac.x.assign(static_cast<size_t>(n) * m, 0.0);
  for (savg::UserId u = 0; u < n; ++u) {
    for (savg::ItemId c = 0; c < m; ++c) {
      const int var = map.XVar(u, c, m);
      if (var >= 0) frac.x[static_cast<size_t>(u) * m + c] = sol->x[var];
    }
  }
  frac.lp_objective = sol->objective;
  frac.exact = true;
  frac.BuildSupporters(savg::RelaxationOptions().prune_tolerance);

  const savg::SolverOptions defaults;
  savg::AvgOptions avg = defaults.avg;
  avg.seed = savg::BatchTaskSeed(base_seed, 0, kSolvers[0], 0);
  start = Clock::now();
  auto avg_result =
      savg::RunAvgBest(instance, frac, defaults.avg_repeats, avg);
  auto avg_d_result = savg::RunAvgD(instance, frac, defaults.avg_d);
  out->round = SecondsSince(start);
  if (!avg_result.ok()) return avg_result.status().ToString();
  if (!avg_d_result.ok()) return avg_d_result.status().ToString();

  start = Clock::now();
  const double avg_total =
      savg::Evaluate(instance, avg_result->config).ScaledTotal();
  const double avg_d_total =
      savg::Evaluate(instance, avg_d_result->config).ScaledTotal();
  out->evaluate = SecondsSince(start);
  if (avg_total != solved.runs[0].scaled_total ||
      avg_d_total != solved.runs[1].scaled_total) {
    return "module-by-module pipeline disagrees with BatchRunner";
  }
  return "";
}

}  // namespace

RunResult RunPaperBatch(const RunOptions& options) {
  RunResult result;
  const int num_instances = kPerKind * 3;

  std::vector<const savg::Solver*> solvers;
  for (const char* name : kSolvers) {
    auto solver = savg::SolverRegistry::Global().Find(name);
    if (!solver.ok()) {
      result.Fail(solver.status().ToString());
      return result;
    }
    solvers.push_back(*solver);
  }
  savg::BatchOptions batch_options;
  batch_options.num_workers = 1;
  batch_options.base_seed = options.seed;
  const savg::BatchRunner runner(batch_options);

  std::vector<double> setup_seconds;
  std::vector<double> generate_seconds;
  std::vector<double> solve_ms;
  std::vector<double> round_rates;  // instances per second of each round
  double timed_seconds = 0.0;
  double traced_seconds = 0.0, untraced_seconds = 0.0;
  int64_t traced_ops = 0, untraced_ops = 0;
  int64_t cache_hits = 0, cache_requests = 0;
  std::vector<LayerSample> layers;
  std::vector<double> batch_ms_traced;  // BatchRunner wall of traced rounds
  std::vector<Solved> first_round;
  std::vector<std::pair<std::string, int64_t>> fingerprint;
  double peak_rss_mb = 0.0;

  for (int round = 0; round < 3 || timed_seconds < options.seconds; ++round) {
    // Set-up and timed phase run on one CPU (see OneCpu); the checks after
    // them do not.
    auto pin = std::make_unique<OneCpu>();
    std::string error;
    const Clock::time_point setup_start = Clock::now();
    InstanceSet set = GenerateSet(options.seed, &error);
    setup_seconds.push_back(SecondsSince(setup_start));
    if (!error.empty()) {
      result.Fail(error);
      return result;
    }
    generate_seconds.insert(generate_seconds.end(),
                            set.generate_seconds.begin(),
                            set.generate_seconds.end());

    // Traced runs alternate: odd rounds add the module-by-module pass.
    const bool traced = options.trace && round % 2 == 1;
    int64_t pivots = 0, refactorizations = 0, fractional = 0;
    std::vector<Solved> solved(num_instances);
    double round_seconds = 0.0;
    for (int i = 0; i < num_instances; ++i) {
      const Clock::time_point start = Clock::now();
      auto report = runner.Run({&set.instances[i]}, solvers);
      const double seconds = SecondsSince(start);
      round_seconds += seconds;
      solve_ms.push_back(seconds * 1e3);
      ++result.attempted;
      if (!report.ok() || !report->FirstError().ok()) {
        ++result.failed;
        continue;
      }
      Solved& s = solved[i];
      for (int j = 0; j < static_cast<int>(solvers.size()); ++j) {
        s.runs.push_back(report->Task(0, j, 0).run);
      }
      s.pivots = report->lp_simplex_iterations;
      s.refactorizations = report->lp_stats.refactorizations;
      s.cache_hits = report->lp_cache_hits;
      s.cache_misses = report->lp_cache_misses;
      pivots += s.pivots;
      refactorizations += s.refactorizations;
      cache_hits += s.cache_hits;
      cache_requests += s.cache_hits + s.cache_misses;
      if (traced) {
        batch_ms_traced.push_back(seconds * 1e3);
        LayerSample sample;
        const std::string why = TraceLayers(set.instances[i], options.seed,
                                            s, &sample);
        if (!why.empty()) result.Fail("instance " + std::to_string(i) +
                                      ": " + why);
        layers.push_back(sample);
      }
    }
    pin.reset();
    timed_seconds += round_seconds;
    round_rates.push_back(num_instances / round_seconds);
    std::printf("round %d setup %.4f s timed %.4f s ops %d%s\n", round,
                setup_seconds.back(), round_seconds, num_instances,
                traced ? " traced" : "");
    (traced ? traced_seconds : untraced_seconds) += round_seconds;
    (traced ? traced_ops : untraced_ops) += num_instances;

    if (first_round.empty()) {
      // Memory is read after round one: later rounds repeat its work, while
      // the benchmark's own sample buffers grow with the run's length.
      peak_rss_mb = PeakRssMb();
      // Round one is checked against computations made here; later rounds
      // must reproduce it exactly.
      std::vector<double> ratios;
      for (int i = 0; i < num_instances; ++i) {
        const SvgicInstance& instance = set.instances[i];
        double bound = 0.0;
        bool is_fractional = false;
        const std::string why = CertifiedLpBound(instance, &bound,
                                                 &is_fractional);
        if (!why.empty()) {
          result.Fail("instance " + std::to_string(i) + ": " + why);
          continue;
        }
        fractional += is_fractional ? 1 : 0;
        for (const savg::SolverRun& run : solved[i].runs) {
          const std::string invalid =
              CheckConfiguration(instance, run.config);
          if (!invalid.empty()) result.Fail(run.solver + ": " + invalid);
          const double total = RecomputeScaledTotal(instance, run.config);
          if (RelDiff(total, run.scaled_total) > 1e-6) {
            std::ostringstream out;
            out << run.solver << " on instance " << i << " reports "
                << run.scaled_total << ", recomputed " << total;
            result.Fail(out.str());
          }
          const double ratio = total / bound;
          if (!(ratio <= 1.0 + 1e-6)) {
            result.Fail(run.solver + " beats the certified LP bound");
          }
          ratios.push_back(ratio);
        }
      }
      result.metrics["utility_ratio"] = Mean(ratios);
      first_round = solved;
      fingerprint = {{"instances", num_instances},
                     {"solver_runs", num_instances *
                                         static_cast<int64_t>(solvers.size())},
                     {"pivots", pivots},
                     {"refactorizations", refactorizations},
                     {"fractional_lps", fractional}};
    } else {
      bool same = pivots == Count(fingerprint, "pivots") &&
                  refactorizations == Count(fingerprint, "refactorizations");
      for (int i = 0; i < num_instances && same; ++i) {
        for (size_t j = 0; j < solved[i].runs.size(); ++j) {
          same = same && j < first_round[i].runs.size() &&
                 solved[i].runs[j].scaled_total ==
                     first_round[i].runs[j].scaled_total;
        }
      }
      if (!same) {
        result.Fail("round " + std::to_string(round) +
                    " did not repeat round one's work and results");
      }
    }
    ++result.rounds;
  }
  result.fingerprint = fingerprint;

  if (!options.trace) {
    result.metrics["setup_s"] = Median(setup_seconds);
    result.metrics["ops_per_s"] = Median(round_rates);
    result.metrics["solve_p50_ms"] = Quantile(solve_ms, 0.5);
    result.metrics["solve_tail_ms"] = Quantile(solve_ms, 0.95);
    result.metrics["command_p50_ms"] = Quantile(solve_ms, 0.5);
    result.metrics["peak_rss_mb"] = peak_rss_mb;
    return result;
  }

  // Traced run: per-layer means per instance. Layers this workload never
  // reaches (online, serve, durability) are reported as 0 by main(). The
  // only metric set so far, utility_ratio, is not a per-layer one.
  result.metrics.clear();
  std::map<std::string, double>& m = result.metrics;
  for (const LayerSample& s : layers) {
    m["lp.solve_ms"] += s.solve * 1e3;
    m["lp.pivots"] += double(s.pivots);
    m["lp.refactorizations"] += double(s.stats.refactorizations);
    m["lp.factor_ms"] += s.stats.factor_seconds * 1e3;
    m["lp.ftran_ms"] += s.stats.ftran_seconds * 1e3;
    m["lp.btran_ms"] += s.stats.btran_seconds * 1e3;
    m["lp.pricing_ms"] += s.stats.pricing_seconds * 1e3;
    m["lp.ratio_test_ms"] += s.stats.ratio_test_seconds * 1e3;
    m["lp.presolve_ms"] += s.stats.presolve_seconds * 1e3;
    m["core.build_lp_ms"] += s.build_lp * 1e3;
    m["core.round_ms"] += s.round * 1e3;
    m["core.evaluate_ms"] += s.evaluate * 1e3;
  }
  for (auto& [name, value] : m) value /= std::max<size_t>(1, layers.size());
  m["experiments.cache_hit_ratio"] =
      cache_requests > 0 ? double(cache_hits) / double(cache_requests) : 0.0;
  m["datagen.generate_ms"] = Mean(generate_seconds) * 1e3;
  m["unattributed_ms"] = Mean(batch_ms_traced) -
                         (m["core.build_lp_ms"] + m["lp.solve_ms"] +
                          m["core.round_ms"] + m["core.evaluate_ms"]);
  m["trace.ops_ratio"] =
      OpsRatio(traced_ops, traced_seconds, untraced_ops, untraced_seconds);
  return result;
}

}  // namespace perfbench
