/// \file bench_fig3_propagation_frequency.cpp
/// Reproduces paper Figure 3: the distribution of per-variable propagation
/// frequency while solving one competition-style instance. The expected
/// shape is heavy skew — a small set of variables is propagated orders of
/// magnitude more often than the rest, which is the observation motivating
/// the frequency-guided deletion criterion (Eq. 2).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "gen/generators.hpp"
#include "solver/solver.hpp"

int main() {
  // A community-structured instance: the modular structure concentrates
  // propagation on a small set of bridge/backbone variables, as the paper
  // observes on industrial CNFs (a uniform distribution would put 10% of
  // propagations in the top 10% of variables; here it is ~3x that).
  const ns::CnfFormula f =
      ns::gen::community_sat(600, 2460, /*communities=*/15,
                             /*modularity=*/0.92, /*seed=*/1);

  ns::solver::SolverOptions opts;
  opts.max_propagations = 2'000'000;
  ns::solver::Solver solver(opts);
  ns::solver::PropagationHistogram hist(f.num_vars());
  solver.set_listener(&hist);
  solver.load(f);
  const ns::solver::SolveOutcome out = solver.solve();

  const std::vector<std::uint64_t>& freq = hist.counts();
  std::uint64_t total = 0, fmax = 0;
  for (std::uint64_t c : freq) {
    total += c;
    fmax = std::max(fmax, c);
  }

  std::printf("=== Figure 3: distribution of propagation frequency ===\n");
  std::printf("instance: %s, status=%s, %s\n", f.summary().c_str(),
              out.result == ns::solver::SatResult::kSat     ? "SAT"
              : out.result == ns::solver::SatResult::kUnsat ? "UNSAT"
                                                            : "UNKNOWN",
              out.stats.summary().c_str());
  std::printf("total propagations: %llu, max per-variable: %llu\n\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(fmax));

  // Normalized frequency per variable (the paper's y-axis), printed as
  // var_id,frequency CSV plus a coarse histogram.
  std::printf("variable_id,normalized_frequency\n");
  for (std::size_t v = 0; v < freq.size(); ++v) {
    std::printf("%zu,%.6f\n", v,
                total ? static_cast<double>(freq[v]) / total : 0.0);
  }

  std::vector<std::uint64_t> sorted(freq);
  std::sort(sorted.rbegin(), sorted.rend());
  std::printf("\nskew profile (share of all propagations):\n");
  for (const double pct : {0.01, 0.05, 0.10, 0.25, 0.50}) {
    const std::size_t k =
        std::max<std::size_t>(1, static_cast<std::size_t>(pct * sorted.size()));
    std::uint64_t head = 0;
    for (std::size_t i = 0; i < k; ++i) head += sorted[i];
    std::printf("  top %4.0f%% of variables -> %5.1f%% of propagations\n",
                100 * pct, total ? 100.0 * head / total : 0.0);
  }
  std::printf("\nhot-variable count at alpha=4/5 (Eq. 2 threshold): ");
  const double threshold = opts.frequency_alpha * static_cast<double>(fmax);
  std::size_t hot = 0;
  for (std::uint64_t c : freq) {
    if (fmax > 0 && static_cast<double>(c) > threshold) ++hot;
  }
  std::printf("%zu of %zu variables\n", hot, freq.size());
  return 0;
}
