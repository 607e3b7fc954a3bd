// Sample statistics, CPU pinning, and the output checks the benchmark makes
// on its own: the objective recomputed from raw utilities, configuration
// validity, and an LP optimality certificate built from primal and dual
// values. None of the checks calls core/objective or lp/kkt, so a fault
// there cannot hide itself.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.h"
#include "core/lp_formulation.h"
#include "lp/simplex.h"

namespace perfbench {

using savg::Configuration;
using savg::ItemId;
using savg::LpModel;
using savg::LpSolution;
using savg::RowType;
using savg::SlotId;
using savg::SvgicInstance;
using savg::UserId;

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int AllowedCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

OneCpu::OneCpu() {
  if (sched_getaffinity(0, sizeof(previous_), &previous_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &previous_)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    return;
  }
}

OneCpu::~OneCpu() {
  if (pinned_) sched_setaffinity(0, sizeof(previous_), &previous_);
}

double RelDiff(double a, double b) {
  return std::fabs(a - b) /
         std::max({1.0, std::fabs(a), std::fabs(b)});
}

double RecomputeScaledTotal(const SvgicInstance& instance,
                            const Configuration& config) {
  const int k = config.num_slots();
  double preference = 0.0;
  for (UserId u = 0; u < config.num_users(); ++u) {
    for (SlotId s = 0; s < k; ++s) {
      const ItemId c = config.At(u, s);
      if (c >= 0) preference += instance.p(u, c);
    }
  }
  // Every directed edge u -> v contributes tau(u, v, c) for each item c
  // that u and v see in the same slot.
  double social = 0.0;
  const savg::SocialGraph& graph = instance.graph();
  for (const savg::Edge& edge : graph.edges()) {
    if (edge.u >= config.num_users() || edge.v >= config.num_users()) continue;
    for (const savg::ItemValue& iv : instance.TauEntries(edge.id)) {
      for (SlotId s = 0; s < k; ++s) {
        if (config.At(edge.u, s) == iv.item) {
          if (config.At(edge.v, s) == iv.item) social += iv.value;
          break;
        }
      }
    }
  }
  const double lambda = instance.lambda();
  return (1.0 - lambda) / lambda * preference + social;
}

std::string CheckConfiguration(const SvgicInstance& instance,
                               const Configuration& config) {
  const int n = instance.num_users();
  const int m = instance.num_items();
  const int k = instance.num_slots();
  if (config.num_users() != n || config.num_slots() != k) {
    std::ostringstream out;
    out << "configuration is " << config.num_users() << "x"
        << config.num_slots() << ", instance is " << n << "x" << k;
    return out.str();
  }
  std::vector<int> seen(static_cast<size_t>(m), -1);
  for (UserId u = 0; u < n; ++u) {
    for (SlotId s = 0; s < k; ++s) {
      const ItemId c = config.At(u, s);
      std::ostringstream out;
      if (c < 0 || c >= m) {
        out << "user " << u << " slot " << s << " holds item " << c;
        return out.str();
      }
      if (seen[c] == u) {
        out << "user " << u << " sees item " << c << " twice";
        return out.str();
      }
      seen[c] = u;
    }
  }
  return "";
}

namespace {

/// An LP optimality certificate for a maximization.
struct LpCertificate {
  double primal_objective = 0.0;
  /// Lagrangian upper bound b'y + sum_j max_{l<=x<=u} (c - A'y)_j x_j from
  /// the sign-corrected duals; valid for any y, tight at an optimum.
  double dual_bound = 0.0;
  double max_primal_violation = 0.0;
  /// Largest dual sign violation (y of the wrong sign for its row type).
  double max_dual_violation = 0.0;
  bool ok = false;
};

LpCertificate CertifyLp(const LpModel& model, const LpSolution& solution) {
  LpCertificate cert;
  const int nv = model.num_vars();
  const int nr = model.num_rows();
  if (static_cast<int>(solution.x.size()) != nv ||
      static_cast<int>(solution.dual_values.size()) != nr) {
    cert.max_primal_violation = cert.max_dual_violation = INFINITY;
    return cert;
  }
  const std::vector<double>& x = solution.x;
  std::vector<double> reduced(static_cast<size_t>(nv));
  for (int j = 0; j < nv; ++j) {
    cert.primal_objective += model.objective(j) * x[j];
    reduced[j] = model.objective(j);
    const double below = model.lower(j) - x[j];
    const double above = x[j] - model.upper(j);
    cert.max_primal_violation =
        std::max({cert.max_primal_violation, below, above});
  }
  double dual_part = 0.0;
  for (int i = 0; i < nr; ++i) {
    const savg::LpRow& row = model.row(i);
    double activity = 0.0;
    for (const savg::LpTerm& t : row.terms) activity += t.coef * x[t.var];
    double y = solution.dual_values[i];
    // Maximization: a <= row needs y >= 0, a >= row needs y <= 0.
    double violation = 0.0;
    if (row.type == RowType::kLessEqual) {
      violation = activity - row.rhs;
      cert.max_dual_violation = std::max(cert.max_dual_violation, -y);
      y = std::max(0.0, y);
    } else if (row.type == RowType::kGreaterEqual) {
      violation = row.rhs - activity;
      cert.max_dual_violation = std::max(cert.max_dual_violation, y);
      y = std::min(0.0, y);
    } else {
      violation = std::fabs(activity - row.rhs);
    }
    cert.max_primal_violation = std::max(cert.max_primal_violation, violation);
    dual_part += y * row.rhs;
    for (const savg::LpTerm& t : row.terms) reduced[t.var] -= y * t.coef;
  }
  cert.dual_bound = dual_part;
  for (int j = 0; j < nv; ++j) {
    const double bound = reduced[j] > 0.0 ? model.upper(j) : model.lower(j);
    if (reduced[j] != 0.0 && std::isinf(bound)) {
      cert.max_dual_violation =
          std::max(cert.max_dual_violation, std::fabs(reduced[j]));
      continue;
    }
    if (reduced[j] != 0.0) cert.dual_bound += reduced[j] * bound;
  }
  const double scale = std::max(1.0, std::fabs(cert.primal_objective));
  cert.ok = model.maximize() && cert.max_primal_violation <= 1e-7 &&
            cert.max_dual_violation <= 1e-7 &&
            std::fabs(cert.dual_bound - cert.primal_objective) <= 1e-7 * scale;
  return cert;
}

/// True when any x is more than 1e-6 away from every integer (a
/// fractional LP optimum).
bool HasFractionalX(const std::vector<double>& x) {
  for (double v : x) {
    if (v - std::floor(v) > 1e-6 && std::ceil(v) - v > 1e-6) return true;
  }
  return false;
}

}  // namespace

std::string CertifiedLpBound(const SvgicInstance& instance, double* bound,
                             bool* fractional) {
  savg::CompactLpMap map;
  auto lp = savg::BuildCompactLp(instance, &map);
  if (!lp.ok()) return "BuildCompactLp: " + lp.status().ToString();
  auto sol = savg::SolveLp(*lp);
  if (!sol.ok()) return "SolveLp: " + sol.status().ToString();
  const LpCertificate cert = CertifyLp(*lp, *sol);
  if (!cert.ok) {
    std::ostringstream out;
    out << "LP certificate fails: primal violation "
        << cert.max_primal_violation << ", dual violation "
        << cert.max_dual_violation << ", gap "
        << cert.dual_bound - cert.primal_objective;
    return out.str();
  }
  *bound = cert.dual_bound;
  *fractional = HasFractionalX(sol->x);
  return "";
}

}  // namespace perfbench
