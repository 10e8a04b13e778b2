/// \file bench_ablation_policies.cpp
/// Ablations over the design choices DESIGN.md calls out:
///   1. the Eq. 2 threshold alpha (the paper fixes it to 4/5 empirically),
///   2. the reduce fraction (how aggressively the DB is trimmed),
///   3. the keep-glue tier (which clauses are never reducible),
///   4. the deletion policy itself (default vs frequency),
/// measured as total propagations over a mixed hard suite.

#include <cstdio>
#include <vector>

#include "gen/generators.hpp"
#include "policy/deletion_policy.hpp"
#include "solver/solver.hpp"

namespace {

std::vector<ns::CnfFormula> suite() {
  std::vector<ns::CnfFormula> out;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    out.push_back(ns::gen::random_ksat(130, 553, 3, s));
    out.push_back(ns::gen::scramble(ns::gen::pigeonhole(9, 8), s));
    out.push_back(ns::gen::community_sat(300, 1275, 10, 0.8, s));
    out.push_back(ns::gen::parity_equivalence(48, false, s));
  }
  return out;
}

std::uint64_t total_propagations(const std::vector<ns::CnfFormula>& fs,
                                 const ns::solver::SolverOptions& opts) {
  std::uint64_t total = 0;
  for (const ns::CnfFormula& f : fs) {
    ns::solver::SolverOptions o = opts;
    o.max_propagations = 1'000'000;
    total += ns::solver::solve_formula(f, o).stats.propagations;
  }
  return total;
}

}  // namespace

int main() {
  const std::vector<ns::CnfFormula> fs = suite();
  std::printf("=== Ablations (total propagations over a %zu-instance suite; "
              "lower is better) ===\n\n",
              fs.size());

  ns::solver::SolverOptions base;
  base.deletion_policy = ns::policy::PolicyKind::kDefault;
  const std::uint64_t baseline = total_propagations(fs, base);
  std::printf("baseline (default policy):            %llu\n\n",
              static_cast<unsigned long long>(baseline));

  std::printf("1. frequency-policy alpha sweep (Eq. 2; paper picks 0.8):\n");
  for (const double alpha : {0.2, 0.5, 0.8, 0.95}) {
    ns::solver::SolverOptions o = base;
    o.deletion_policy = ns::policy::PolicyKind::kFrequency;
    o.frequency_alpha = alpha;
    std::printf("   alpha=%.2f  ->  %llu\n", alpha,
                static_cast<unsigned long long>(total_propagations(fs, o)));
  }

  std::printf("\n2. reduce fraction sweep (default policy):\n");
  for (const double frac : {0.35, 0.5, 0.65, 0.8}) {
    ns::solver::SolverOptions o = base;
    o.reduce_fraction = frac;
    std::printf("   fraction=%.2f  ->  %llu\n", frac,
                static_cast<unsigned long long>(total_propagations(fs, o)));
  }

  std::printf("\n3. keep-glue tier sweep (glue <= k never deleted):\n");
  for (const std::uint32_t k : {0u, 2u, 4u, 8u}) {
    ns::solver::SolverOptions o = base;
    o.keep_glue = k;
    std::printf("   keep_glue=%u  ->  %llu\n", k,
                static_cast<unsigned long long>(total_propagations(fs, o)));
  }

  std::printf("\n4. deletion policy comparison on the same suite:\n");
  for (const auto kind : {ns::policy::PolicyKind::kDefault,
                          ns::policy::PolicyKind::kFrequency}) {
    ns::solver::SolverOptions o = base;
    o.deletion_policy = kind;
    std::printf("   %-10s  ->  %llu\n",
                kind == ns::policy::PolicyKind::kDefault ? "default"
                                                          : "frequency",
                static_cast<unsigned long long>(total_propagations(fs, o)));
  }
  return 0;
}
