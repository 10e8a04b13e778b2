#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <iterator>

#include "brute_force.hpp"
#include "gen/generators.hpp"
#include "simplify_corpus.hpp"
#include "solver/simplify.hpp"
#include "solver/solver.hpp"

namespace ns::solver {
namespace {

const testing::SimplifyGolden kSimplifyGolden[] = {
#include "golden_simplify.inc"
};

/// A clause from DIMACS literals, sorted the way CnfFormula stores it.
Clause dimacs_clause(std::initializer_list<int> lits) {
  Clause c;
  for (const int l : lits) c.push_back(Lit::from_dimacs(l));
  std::sort(c.begin(), c.end());
  return c;
}

CnfFormula dimacs_formula(std::size_t num_vars,
                          std::initializer_list<Clause> clauses) {
  CnfFormula f(num_vars);
  for (const Clause& c : clauses) f.add_clause(c);
  return f;
}

/// Checks the exact surviving clauses, in order, and the exact removal
/// count under both pure-literal settings (the callers keep every variable
/// impure and unit-free, so the two settings must agree).
void expect_survivors(const CnfFormula& f, const std::vector<Clause>& kept,
                      std::size_t removed) {
  for (const bool pure : {false, true}) {
    SimplifyOptions options;
    options.pure_literals = pure;
    const SimplifyResult r = simplify(f, options);
    EXPECT_TRUE(r.consistent) << "pure_literals=" << pure;
    EXPECT_EQ(r.formula.clauses(), kept) << "pure_literals=" << pure;
    EXPECT_EQ(r.removed_clauses, removed) << "pure_literals=" << pure;
    EXPECT_EQ(r.fixed_units + r.fixed_pures, 0u) << "pure_literals=" << pure;
  }
}

TEST(SimplifyTest, UnitPropagationFixesChain) {
  // x0 ; x0 -> x1 ; x1 -> x2 : everything is fixed, no clauses remain.
  CnfFormula f(3);
  f.add_clause({Lit(0, false)});
  f.add_clause({Lit(0, true), Lit(1, false)});
  f.add_clause({Lit(1, true), Lit(2, false)});
  const SimplifyResult r = simplify(f);
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.formula.num_clauses(), 0u);
  EXPECT_EQ(r.fixed[0], LBool::kTrue);
  EXPECT_EQ(r.fixed[1], LBool::kTrue);
  EXPECT_EQ(r.fixed[2], LBool::kTrue);
  EXPECT_GE(r.fixed_units, 1u);
}

TEST(SimplifyTest, DetectsRootContradiction) {
  CnfFormula f(1);
  f.add_clause({Lit(0, false)});
  f.add_clause({Lit(0, true)});
  const SimplifyResult r = simplify(f);
  EXPECT_FALSE(r.consistent);
  EXPECT_TRUE(r.formula.has_empty_clause());
}

TEST(SimplifyTest, PureLiteralsEliminated) {
  // x0 appears only positively; x1 both ways.
  CnfFormula f(2);
  f.add_clause({Lit(0, false), Lit(1, false)});
  f.add_clause({Lit(0, false), Lit(1, true)});
  const SimplifyResult r = simplify(f);
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.fixed[0], LBool::kTrue);   // pure positive
  EXPECT_EQ(r.formula.num_clauses(), 0u);  // both clauses satisfied by x0
  EXPECT_GE(r.fixed_pures, 1u);
}

TEST(SimplifyTest, DuplicatesAndSubsumedClausesRemoved) {
  // Every variable stays impure so pure-literal elimination stays out of
  // the way; survivors come out in stable size order.
  expect_survivors(dimacs_formula(4, {
                       dimacs_clause({1, 2}),
                       dimacs_clause({2, 1}),     // duplicate
                       dimacs_clause({1, 2, 3}),  // subsumed
                       dimacs_clause({-1, -2, -3, 4}),
                       dimacs_clause({-3, -4}),
                   }),
                   {dimacs_clause({1, 2}), dimacs_clause({-3, -4}),
                    dimacs_clause({-1, -2, -3, 4})},
                   2);

  // A clause that appears three times is kept once.
  const Clause t = dimacs_clause({1, 2, 3});
  expect_survivors(
      dimacs_formula(3, {t, t, dimacs_clause({-1, -2}), t,
                         dimacs_clause({-3, 1})}),
      {dimacs_clause({-1, -2}), dimacs_clause({1, -3}), t}, 2);

  // A duplicate pair subsumed by a shorter clause that comes before,
  // between or after the pair: each copy is dropped exactly once.
  const Clause s = dimacs_clause({1, 2});
  const Clause d = dimacs_clause({1, 2, 3});
  const Clause n1 = dimacs_clause({-1, -3});
  const Clause n2 = dimacs_clause({-2, 3});
  for (const CnfFormula& f : {dimacs_formula(3, {s, d, d, n1, n2}),
                              dimacs_formula(3, {d, s, d, n1, n2}),
                              dimacs_formula(3, {d, d, s, n1, n2})}) {
    expect_survivors(f, {s, n1, n2}, 2);
  }
}

// The simplifier must reproduce, row for row, what the seed simplifier
// produced on the simplify corpus: the verdict, the counters, and `fixed`
// plus the surviving clauses in order (through their digest).
TEST(SimplifyTest, MatchesGolden) {
  const auto instances = testing::simplify_instances();
  ASSERT_EQ(std::size(kSimplifyGolden), 2 * instances.size());
  for (const testing::SimplifyGolden& g : kSimplifyGolden) {
    ASSERT_LT(g.instance, instances.size());
    SimplifyOptions options;
    options.pure_literals = g.pure_literals;
    const SimplifyResult r = simplify(instances[g.instance].second, options);
    const std::string where = instances[g.instance].first +
                              " pure_literals=" + (g.pure_literals ? "1" : "0");
    EXPECT_EQ(r.consistent, g.consistent) << where;
    EXPECT_EQ(r.fixed_units, g.fixed_units) << where;
    EXPECT_EQ(r.fixed_pures, g.fixed_pures) << where;
    EXPECT_EQ(r.removed_clauses, g.removed_clauses) << where;
    EXPECT_EQ(r.removed_literals, g.removed_literals) << where;
    EXPECT_EQ(testing::simplify_digest(r), g.digest) << where;
  }
}

TEST(SimplifyTest, CompleteModelOverlaysFixedValues) {
  CnfFormula f(3);
  f.add_clause({Lit(0, false)});                  // unit: x0 = T
  f.add_clause({Lit(1, false), Lit(2, false)});   // stays (after pures...)
  f.add_clause({Lit(1, true), Lit(2, false)});
  const SimplifyResult r = simplify(f);
  ASSERT_TRUE(r.consistent);
  Model m(3, false);
  m = r.complete_model(m);
  EXPECT_TRUE(m[0]);
}

// Property: simplification preserves satisfiability, and models of the
// simplified formula complete to models of the original.
TEST(SimplifyTest, EquisatisfiableOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    for (const double ratio : {2.0, 4.3, 6.0}) {
      const std::size_t n = 9 + seed % 4;
      const CnfFormula f =
          gen::random_ksat(n, static_cast<std::size_t>(ratio * n), 3, seed);
      const auto oracle = testing::brute_force_solve(f);
      const SimplifyResult r = simplify(f);
      if (!r.consistent) {
        EXPECT_FALSE(oracle.has_value()) << "seed " << seed;
        continue;
      }
      const SolveOutcome out = solve_formula(r.formula);
      EXPECT_EQ(out.result == SatResult::kSat, oracle.has_value())
          << "seed " << seed << " ratio " << ratio;
      if (out.result == SatResult::kSat) {
        const Model full = r.complete_model(out.model);
        EXPECT_TRUE(f.satisfied_by(full)) << "seed " << seed;
      }
    }
  }
}

TEST(SimplifyTest, PreprocessingShrinksStructuredInstances) {
  const CnfFormula f = gen::adder_equivalence(6, /*inject_bug=*/false, 1);
  const SimplifyResult r = simplify(f);
  ASSERT_TRUE(r.consistent);
  // Tseitin constants and their cones are root-implied: real shrinkage.
  EXPECT_LT(r.formula.num_clauses(), f.num_clauses());
  EXPECT_GT(r.fixed_units + r.fixed_pures, 0u);
  // And the simplified miter is still UNSAT.
  EXPECT_EQ(solve_formula(r.formula).result, SatResult::kUnsat);
}

// In-solver preprocessing: must agree with the plain configuration on an
// oracle sweep and on structured families.
TEST(SimplifyTest, SolverPreprocessOptionPreservesVerdicts) {
  SolverOptions pre;
  pre.preprocess = true;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const std::size_t n = 10 + seed % 4;
    const CnfFormula f =
        gen::random_ksat(n, static_cast<std::size_t>(4.3 * n), 3, seed);
    const auto oracle = testing::brute_force_solve(f);
    const SolveOutcome out = solve_formula(f, pre);
    ASSERT_NE(out.result, SatResult::kUnknown);
    EXPECT_EQ(out.result == SatResult::kSat, oracle.has_value()) << seed;
    if (out.result == SatResult::kSat) {
      EXPECT_TRUE(f.satisfied_by(out.model));
    }
  }
  EXPECT_EQ(solve_formula(gen::pigeonhole(6, 5), pre).result,
            SatResult::kUnsat);
  EXPECT_EQ(solve_formula(gen::adder_equivalence(4, true, 1), pre).result,
            SatResult::kSat);
}

TEST(SimplifyTest, PreprocessReducesWorkOnTseitinInstances) {
  const CnfFormula f = gen::adder_equivalence(10, /*inject_bug=*/false, 1);
  SolverOptions plain;
  SolverOptions pre;
  pre.preprocess = true;
  const auto a = solve_formula(f, plain);
  const auto b = solve_formula(f, pre);
  EXPECT_EQ(a.result, b.result);
  // Preprocessing strips the constant cones, so the search sees fewer
  // clauses; the runs must at least differ.
  EXPECT_NE(a.stats.propagations, b.stats.propagations);
}

// DRAT text parser round trip.
TEST(DratParseTest, RoundTripsWriterOutput) {
  std::vector<ProofStep> steps;
  ASSERT_TRUE(parse_drat_text("1 -2 0\nd 3 0\nc comment\n-4 0\n0\n", steps));
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_FALSE(steps[0].is_delete);
  EXPECT_EQ(steps[0].lits.size(), 2u);
  EXPECT_TRUE(steps[1].is_delete);
  EXPECT_EQ(steps[1].lits[0], Lit::from_dimacs(3));
  EXPECT_EQ(steps[2].lits[0], Lit::from_dimacs(-4));
  EXPECT_TRUE(steps[3].lits.empty());  // the empty clause
}

TEST(DratParseTest, RejectsMalformedInput) {
  std::vector<ProofStep> steps;
  EXPECT_FALSE(parse_drat_text("1 2\n", steps));    // missing 0
  EXPECT_FALSE(parse_drat_text("1 x 0\n", steps));  // junk token
}

}  // namespace
}  // namespace ns::solver
