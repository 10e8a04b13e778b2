#include <gtest/gtest.h>

#include "brute_force.hpp"
#include "cnf/formula.hpp"
#include "gen/generators.hpp"
#include "solver/luby.hpp"
#include "solver/solver.hpp"

namespace ns::solver {
namespace {

SolveOutcome solve(const CnfFormula& f, SolverOptions opts = {}) {
  return solve_formula(f, opts);
}

// --- trivial cases ----------------------------------------------------------

TEST(SolverTest, EmptyFormulaIsSat) {
  CnfFormula f(3);
  const SolveOutcome r = solve(f);
  EXPECT_EQ(r.result, SatResult::kSat);
  EXPECT_TRUE(f.satisfied_by(r.model));
}

TEST(SolverTest, EmptyClauseIsUnsat) {
  CnfFormula f(1);
  f.add_clause({});
  EXPECT_EQ(solve(f).result, SatResult::kUnsat);
}

TEST(SolverTest, SingleUnitClause) {
  CnfFormula f(1);
  f.add_clause({Lit(0, false)});
  const SolveOutcome r = solve(f);
  ASSERT_EQ(r.result, SatResult::kSat);
  EXPECT_TRUE(r.model[0]);
}

TEST(SolverTest, ContradictoryUnitsAreUnsat) {
  CnfFormula f(1);
  f.add_clause({Lit(0, false)});
  f.add_clause({Lit(0, true)});
  EXPECT_EQ(solve(f).result, SatResult::kUnsat);
}

TEST(SolverTest, UnitPropagationChainSolvesWithoutDecisions) {
  // x0, x0->x1, x1->x2, ..., fully determined by BCP.
  CnfFormula f(5);
  f.add_clause({Lit(0, false)});
  for (Var v = 0; v + 1 < 5; ++v) {
    f.add_clause({Lit(v, true), Lit(v + 1, false)});
  }
  const SolveOutcome r = solve(f);
  ASSERT_EQ(r.result, SatResult::kSat);
  for (bool b : r.model) EXPECT_TRUE(b);
  EXPECT_EQ(r.stats.decisions, 0u);
  EXPECT_GE(r.stats.propagations, 5u);
}

TEST(SolverTest, PropagationConflictAtRootIsUnsat) {
  // x0 ; x0->x1 ; x0->~x1.
  CnfFormula f(2);
  f.add_clause({Lit(0, false)});
  f.add_clause({Lit(0, true), Lit(1, false)});
  f.add_clause({Lit(0, true), Lit(1, true)});
  EXPECT_EQ(solve(f).result, SatResult::kUnsat);
}

// --- structured families ------------------------------------------------------

TEST(SolverTest, SolvesTightPigeonhole) {
  const CnfFormula f = gen::pigeonhole(4, 4);
  const SolveOutcome r = solve(f);
  ASSERT_EQ(r.result, SatResult::kSat);
  EXPECT_TRUE(f.satisfied_by(r.model));
}

TEST(SolverTest, RefutesOverfullPigeonhole) {
  for (std::size_t holes : {3u, 4u, 5u, 6u}) {
    const CnfFormula f = gen::pigeonhole(holes + 1, holes);
    EXPECT_EQ(solve(f).result, SatResult::kUnsat) << holes;
  }
}

TEST(SolverTest, XorChainsMatchConstruction) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    EXPECT_EQ(solve(gen::xor_chain(60, false, seed)).result, SatResult::kSat);
    EXPECT_EQ(solve(gen::xor_chain(60, true, seed)).result, SatResult::kUnsat);
  }
}

TEST(SolverTest, MiterOfEquivalentAddersIsUnsat) {
  const CnfFormula f = gen::adder_equivalence(4, /*inject_bug=*/false, 1);
  EXPECT_EQ(solve(f).result, SatResult::kUnsat);
}

TEST(SolverTest, MiterOfBuggedAdderIsSat) {
  const CnfFormula f = gen::adder_equivalence(4, /*inject_bug=*/true, 1);
  const SolveOutcome r = solve(f);
  ASSERT_EQ(r.result, SatResult::kSat);
  EXPECT_TRUE(f.satisfied_by(r.model));
}

// --- budgets ("timeout" proxy) --------------------------------------------------

TEST(SolverTest, PropagationBudgetYieldsUnknown) {
  const CnfFormula f = gen::pigeonhole(9, 8);  // hard for CDCL
  SolverOptions opts;
  opts.max_propagations = 50;
  const SolveOutcome r = solve(f, opts);
  EXPECT_EQ(r.result, SatResult::kUnknown);
}

TEST(SolverTest, ConflictBudgetYieldsUnknown) {
  const CnfFormula f = gen::pigeonhole(9, 8);
  SolverOptions opts;
  opts.max_conflicts = 3;
  const SolveOutcome r = solve(f, opts);
  EXPECT_EQ(r.result, SatResult::kUnknown);
  EXPECT_GE(r.stats.conflicts, 3u);
}

// --- machinery engagement -------------------------------------------------------

TEST(SolverTest, HardInstanceExercisesRestartsAndReduction) {
  SolverOptions opts;
  opts.reduce_interval = 50;
  opts.restart_mode = RestartMode::kLuby;
  opts.restart_interval = 16;
  const CnfFormula f = gen::pigeonhole(8, 7);
  const SolveOutcome r = solve(f, opts);
  EXPECT_EQ(r.result, SatResult::kUnsat);
  EXPECT_GT(r.stats.restarts, 0u);
  EXPECT_GT(r.stats.reductions, 0u);
  EXPECT_GT(r.stats.deleted_clauses, 0u);
  EXPECT_GT(r.stats.learned_clauses, 0u);
}

TEST(SolverTest, FrequencyCountersAccumulate) {
  Solver s{SolverOptions{}};
  const CnfFormula f = gen::random_ksat(40, 160, 3, 11);
  PropagationHistogram hist(f.num_vars());
  s.set_listener(&hist);
  s.load(f);
  const SolveOutcome r = s.solve();
  ASSERT_NE(r.result, SatResult::kUnknown);
  const auto& cum = hist.counts();
  ASSERT_EQ(cum.size(), f.num_vars());
  std::uint64_t total = 0;
  for (std::uint64_t c : cum) total += c;
  EXPECT_EQ(total, r.stats.propagations);
}

TEST(SolverTest, StatsSummaryMentionsConflicts) {
  const CnfFormula f = gen::pigeonhole(5, 4);
  const SolveOutcome r = solve(f);
  EXPECT_NE(r.stats.summary().find("conflicts="), std::string::npos);
}

TEST(SolverTest, SolverIsReusableAcrossLoads) {
  Solver s{SolverOptions{}};
  s.load(gen::pigeonhole(4, 3));
  EXPECT_EQ(s.solve().result, SatResult::kUnsat);
  s.load(gen::pigeonhole(4, 4));
  EXPECT_EQ(s.solve().result, SatResult::kSat);
}

// --- Luby sequence --------------------------------------------------------------

TEST(LubyTest, FirstFifteenTerms) {
  const std::uint64_t expected[] = {1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8};
  for (std::size_t i = 0; i < 15; ++i) {
    EXPECT_EQ(luby(i + 1), expected[i]) << "term " << i + 1;
  }
}

// --- configuration matrix property sweep ------------------------------------------
//
// Every solver configuration must agree with the brute-force oracle on a
// battery of small random instances spanning under- and over-constrained
// regimes, and returned models must actually satisfy the formula.

struct SolverConfig {
  policy::PolicyKind policy;
  DecisionMode decision;
  RestartMode restart;
  const char* label;
};

class SolverOracleTest : public ::testing::TestWithParam<SolverConfig> {};

TEST_P(SolverOracleTest, AgreesWithBruteForceOnRandomInstances) {
  const SolverConfig cfg = GetParam();
  SolverOptions opts;
  opts.deletion_policy = cfg.policy;
  opts.decision_mode = cfg.decision;
  opts.restart_mode = cfg.restart;
  opts.reduce_interval = 20;  // force frequent reductions on tiny instances
  opts.restart_interval = 8;

  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const double ratio : {3.0, 4.3, 5.5}) {
      const std::size_t n = 10 + seed % 5;
      const auto m = static_cast<std::size_t>(ratio * n);
      const CnfFormula f = gen::random_ksat(n, m, 3, seed * 1000 + n);
      const auto oracle = testing::brute_force_solve(f);
      const SolveOutcome r = solve_formula(f, opts);
      ASSERT_NE(r.result, SatResult::kUnknown);
      if (oracle.has_value()) {
        ASSERT_EQ(r.result, SatResult::kSat)
            << cfg.label << " seed=" << seed << " ratio=" << ratio;
        EXPECT_TRUE(f.satisfied_by(r.model));
      } else {
        ASSERT_EQ(r.result, SatResult::kUnsat)
            << cfg.label << " seed=" << seed << " ratio=" << ratio;
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, 60u);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigMatrix, SolverOracleTest,
    ::testing::Values(
        SolverConfig{policy::PolicyKind::kDefault, DecisionMode::kEvsids,
                     RestartMode::kGlucoseEma, "default-evsids-ema"},
        SolverConfig{policy::PolicyKind::kFrequency, DecisionMode::kEvsids,
                     RestartMode::kGlucoseEma, "frequency-evsids-ema"},
        SolverConfig{policy::PolicyKind::kDefault, DecisionMode::kVmtf,
                     RestartMode::kLuby, "default-vmtf-luby"},
        SolverConfig{policy::PolicyKind::kFrequency, DecisionMode::kVmtf,
                     RestartMode::kGlucoseEma, "frequency-vmtf-ema"},
        SolverConfig{policy::PolicyKind::kDefault, DecisionMode::kEvsids,
                     RestartMode::kLuby, "default-evsids-luby"}),
    [](const ::testing::TestParamInfo<SolverConfig>& info) {
      std::string s = info.param.label;
      for (char& ch : s) {
        if (ch == '-') ch = '_';
      }
      return s;
    });

// Structured-family oracle sweep: both deletion policies must agree on
// SAT/UNSAT status of every generated family.
class PolicyEquivalenceTest
    : public ::testing::TestWithParam<policy::PolicyKind> {};

TEST_P(PolicyEquivalenceTest, StructuredFamiliesKeepStatus) {
  SolverOptions opts;
  opts.deletion_policy = GetParam();
  opts.reduce_interval = 30;

  EXPECT_EQ(solve_formula(gen::pigeonhole(7, 6), opts).result,
            SatResult::kUnsat);
  EXPECT_EQ(solve_formula(gen::xor_chain(80, true, 3), opts).result,
            SatResult::kUnsat);
  EXPECT_EQ(solve_formula(gen::xor_chain(80, false, 3), opts).result,
            SatResult::kSat);
  EXPECT_EQ(
      solve_formula(gen::adder_equivalence(3, false, 1), opts).result,
      SatResult::kUnsat);
  EXPECT_EQ(solve_formula(gen::adder_equivalence(3, true, 1), opts).result,
            SatResult::kSat);
  const CnfFormula coloring = gen::graph_coloring(10, 0.4, 3, 2);
  const SolveOutcome r = solve_formula(coloring, opts);
  if (r.result == SatResult::kSat) {
    EXPECT_TRUE(coloring.satisfied_by(r.model));
  }
}

INSTANTIATE_TEST_SUITE_P(BothPolicies, PolicyEquivalenceTest,
                         ::testing::Values(policy::PolicyKind::kDefault,
                                           policy::PolicyKind::kFrequency),
                         [](const auto& info) {
                           return info.param == policy::PolicyKind::kDefault
                                      ? "default"
                                      : "frequency";
                         });

}  // namespace
}  // namespace ns::solver
