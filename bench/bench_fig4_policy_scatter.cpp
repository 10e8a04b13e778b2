/// \file bench_fig4_policy_scatter.cpp
/// Reproduces paper Figure 4: per-instance runtime of Kissat's default
/// clause-deletion policy (x-axis) vs the propagation-frequency-guided
/// policy (y-axis) over a benchmark suite with a fixed timeout. Instances
/// unsolved by both policies are excluded, as in the paper. Prints one CSV
/// row per instance plus win/loss aggregates; the expected *shape* is dots
/// on both sides of the diagonal — neither policy dominates — which is the
/// paper's motivation for learned policy selection.

#include <cstdio>

#include "core/neuroselect.hpp"
#include "gen/dataset.hpp"
#include "solver/solver.hpp"

namespace {

struct Measurement {
  double default_seconds;
  double frequency_seconds;
  bool default_solved;
  bool frequency_solved;
};

Measurement measure(const ns::CnfFormula& f, std::uint64_t budget) {
  Measurement m{};
  ns::solver::SolverOptions opts;
  opts.max_propagations = budget;

  opts.deletion_policy = ns::policy::PolicyKind::kDefault;
  const auto d = ns::solver::solve_formula(f, opts);
  m.default_solved = d.result != ns::solver::SatResult::kUnknown;
  m.default_seconds =
      (m.default_solved ? static_cast<double>(d.stats.propagations)
                        : static_cast<double>(budget)) /
      ns::core::kProxyPropsPerSecond;

  opts.deletion_policy = ns::policy::PolicyKind::kFrequency;
  const auto q = ns::solver::solve_formula(f, opts);
  m.frequency_solved = q.result != ns::solver::SatResult::kUnknown;
  m.frequency_seconds =
      (m.frequency_solved ? static_cast<double>(q.stats.propagations)
                          : static_cast<double>(budget)) /
      ns::core::kProxyPropsPerSecond;
  return m;
}

}  // namespace

int main() {
  constexpr std::uint64_t kBudget = 500'000;  // the "5000 s" proxy timeout

  std::printf("=== Figure 4: default vs frequency-guided clause deletion ===\n");
  std::printf("timeout: %.0f proxy-seconds (%llu propagations)\n\n",
              static_cast<double>(kBudget) / ns::core::kProxyPropsPerSecond,
              static_cast<unsigned long long>(kBudget));
  std::printf("name,family,default_s,frequency_s,winner\n");

  const auto split = ns::gen::generate_split(2022, 48, /*seed_base=*/17);
  std::size_t wins = 0, losses = 0, ties = 0, both_timeout = 0;
  double sum_default = 0.0, sum_frequency = 0.0;
  for (const ns::gen::NamedInstance& inst : split) {
    const Measurement m = measure(inst.formula, kBudget);
    if (!m.default_solved && !m.frequency_solved) {
      ++both_timeout;  // excluded from the scatter, as in the paper
      continue;
    }
    const double rel =
        (m.default_seconds - m.frequency_seconds) / m.default_seconds;
    const char* winner = "tie";
    if (rel > 0.02) {
      winner = "frequency";
      ++wins;
    } else if (rel < -0.02) {
      winner = "default";
      ++losses;
    } else {
      ++ties;
    }
    sum_default += m.default_seconds;
    sum_frequency += m.frequency_seconds;
    std::printf("%s,%s,%.3f,%.3f,%s\n", inst.name.c_str(),
                inst.family.c_str(), m.default_seconds, m.frequency_seconds,
                winner);
  }

  std::printf("\nsummary: frequency wins %zu, default wins %zu, ties %zu, "
              "excluded (both timeout) %zu\n",
              wins, losses, ties, both_timeout);
  std::printf("total proxy runtime: default %.1f s, frequency %.1f s\n",
              sum_default, sum_frequency);
  std::printf("shape check: points on BOTH sides of the diagonal -> %s\n",
              (wins > 0 && losses > 0) ? "YES (matches paper)" : "NO");
  return 0;
}
