#include <gtest/gtest.h>

#include <stdexcept>

#include "brute_force.hpp"
#include "gen/circuit.hpp"
#include "gen/dataset.hpp"
#include "gen/generators.hpp"

namespace ns::gen {
namespace {

// --- random k-SAT ---------------------------------------------------------

TEST(RandomKsatTest, ProducesRequestedShape) {
  const CnfFormula f = random_ksat(50, 200, 3, 42);
  EXPECT_EQ(f.num_vars(), 50u);
  EXPECT_EQ(f.num_clauses(), 200u);
  for (const Clause& c : f.clauses()) EXPECT_EQ(c.size(), 3u);
}

TEST(RandomKsatTest, DeterministicInSeed) {
  const CnfFormula a = random_ksat(30, 100, 3, 7);
  const CnfFormula b = random_ksat(30, 100, 3, 7);
  ASSERT_EQ(a.num_clauses(), b.num_clauses());
  for (std::size_t i = 0; i < a.num_clauses(); ++i) {
    EXPECT_EQ(a.clause(i), b.clause(i));
  }
}

TEST(RandomKsatTest, DifferentSeedsDiffer) {
  const CnfFormula a = random_ksat(30, 100, 3, 7);
  const CnfFormula b = random_ksat(30, 100, 3, 8);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.num_clauses() && !any_diff; ++i) {
    any_diff = a.clause(i) != b.clause(i);
  }
  EXPECT_TRUE(any_diff);
}

// An impossible shape is refused in every build instead of sampling
// forever (or reading past the inputs of an empty circuit).
TEST(RandomKsatTest, RefusesKOutsideOneToNumVars) {
  EXPECT_THROW(random_ksat(3, 5, 7, 1), std::invalid_argument);
  EXPECT_THROW(random_ksat(3, 5, 0, 1), std::invalid_argument);
  EXPECT_THROW(random_ksat(0, 0, 1, 1), std::invalid_argument);
  EXPECT_EQ(random_ksat(3, 5, 3, 1).num_clauses(), 5u);
  EXPECT_THROW(xor_chain(1, false, 1), std::invalid_argument);
  EXPECT_THROW(parity_equivalence(0, false, 1), std::invalid_argument);
}

// --- pigeonhole -------------------------------------------------------------

TEST(PigeonholeTest, TightInstanceIsSatisfiable) {
  const CnfFormula f = pigeonhole(3, 3);
  EXPECT_TRUE(testing::brute_force_solve(f).has_value());
}

TEST(PigeonholeTest, OverfullInstanceIsUnsat) {
  const CnfFormula f = pigeonhole(4, 3);
  EXPECT_FALSE(testing::brute_force_solve(f).has_value());
}

TEST(PigeonholeTest, ClauseCountMatchesConstruction) {
  const std::size_t p = 5, h = 4;
  const CnfFormula f = pigeonhole(p, h);
  // p at-least-one clauses + h * C(p,2) at-most-one clauses.
  EXPECT_EQ(f.num_clauses(), p + h * (p * (p - 1) / 2));
  EXPECT_EQ(f.num_vars(), p * h);
}

// --- graph colouring --------------------------------------------------------

TEST(GraphColoringTest, EmptyGraphIsColourable) {
  const CnfFormula f = graph_coloring(5, 0.0, 2, 1);
  EXPECT_TRUE(testing::brute_force_solve(f).has_value());
}

TEST(GraphColoringTest, CompleteGraphNeedsAsManyColours) {
  // K4 with 3 colours is UNSAT (12 vars: brute force ok).
  const CnfFormula f = graph_coloring(4, 1.0, 3, 1);
  EXPECT_FALSE(testing::brute_force_solve(f).has_value());
  // K4 with 4 colours is SAT but has 16 vars; skip brute force there.
}

// --- xor chains -------------------------------------------------------------

TEST(XorChainTest, ConsistentChainSatisfiable) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const CnfFormula f = xor_chain(12, /*contradictory=*/false, seed);
    EXPECT_TRUE(testing::brute_force_solve(f).has_value()) << seed;
  }
}

TEST(XorChainTest, ContradictoryChainUnsat) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const CnfFormula f = xor_chain(12, /*contradictory=*/true, seed);
    EXPECT_FALSE(testing::brute_force_solve(f).has_value()) << seed;
  }
}

// --- community SAT ----------------------------------------------------------

TEST(CommunitySatTest, RespectsShapeAndDeterminism) {
  const CnfFormula a = community_sat(60, 200, 5, 0.8, 9);
  const CnfFormula b = community_sat(60, 200, 5, 0.8, 9);
  EXPECT_EQ(a.num_vars(), 60u);
  EXPECT_EQ(a.num_clauses(), 200u);
  for (std::size_t i = 0; i < a.num_clauses(); ++i) {
    EXPECT_EQ(a.clause(i), b.clause(i));
  }
}

// --- circuits ----------------------------------------------------------------

TEST(CircuitTest, SimulateBasicGates) {
  Circuit c;
  const Signal a = c.add_input();
  const Signal b = c.add_input();
  const Signal x = c.add_xor(a, b);
  const Signal n = c.add_not(a);
  const Signal o = c.add_or(x, n);
  c.mark_output(o);
  const auto v = c.simulate({true, false});
  EXPECT_TRUE(v[x]);   // 1 ^ 0
  EXPECT_FALSE(v[n]);  // !1
  EXPECT_TRUE(v[o]);
}

TEST(CircuitTest, AdderMatchesArithmetic) {
  const std::size_t bits = 4;
  const Circuit add = ripple_carry_adder(bits);
  for (unsigned a = 0; a < 16; ++a) {
    for (unsigned b = 0; b < 16; ++b) {
      std::vector<bool> in;
      for (std::size_t i = 0; i < bits; ++i) in.push_back((a >> i) & 1);
      for (std::size_t i = 0; i < bits; ++i) in.push_back((b >> i) & 1);
      const auto v = add.simulate(in);
      unsigned sum = 0;
      for (std::size_t i = 0; i <= bits; ++i) {
        sum |= static_cast<unsigned>(v[add.outputs()[i]]) << i;
      }
      EXPECT_EQ(sum, a + b) << a << "+" << b;
    }
  }
}

TEST(CircuitTest, AlternativeAdderEquivalentUnlessBugged) {
  const std::size_t bits = 3;
  const Circuit ref = ripple_carry_adder(bits);
  const Circuit alt = alternative_adder(bits, /*inject_bug=*/false);
  const Circuit bug = alternative_adder(bits, /*inject_bug=*/true);
  bool bug_differs = false;
  for (unsigned in_bits = 0; in_bits < (1u << (2 * bits)); ++in_bits) {
    std::vector<bool> in;
    for (std::size_t i = 0; i < 2 * bits; ++i) in.push_back((in_bits >> i) & 1);
    const auto vr = ref.simulate(in);
    const auto va = alt.simulate(in);
    const auto vb = bug.simulate(in);
    for (std::size_t o = 0; o <= bits; ++o) {
      EXPECT_EQ(vr[ref.outputs()[o]], va[alt.outputs()[o]]);
      if (vr[ref.outputs()[o]] != vb[bug.outputs()[o]]) bug_differs = true;
    }
  }
  EXPECT_TRUE(bug_differs);
}

TEST(CircuitTest, TseitinEncodingPreservesSemantics) {
  // For the 2-bit adder: CNF plus pinned inputs must be satisfiable exactly
  // with the simulated output values.
  const Circuit add = ripple_carry_adder(2);
  CnfFormula f;
  const std::vector<Var> var_of = add.tseitin_encode(f);
  // Pin inputs a=3 (11), b=1 (01).
  const std::vector<bool> in = {true, true, true, false};
  for (std::size_t i = 0; i < add.num_inputs(); ++i) {
    f.add_clause({Lit(var_of[add.inputs()[i]], !in[i])});
  }
  const auto model = testing::brute_force_solve(f);
  ASSERT_TRUE(model.has_value());
  const auto sim = add.simulate(in);
  for (const Signal s : add.outputs()) {
    EXPECT_EQ((*model)[var_of[s]], sim[s]);
  }
}

namespace {

Circuit xor_direct() {
  Circuit c;
  const Signal a = c.add_input();
  const Signal b = c.add_input();
  c.mark_output(c.add_xor(a, b));
  return c;
}

Circuit xor_from_and_or(bool buggy) {
  Circuit c;
  const Signal a = c.add_input();
  const Signal b = c.add_input();
  const Signal o = c.add_or(a, b);
  const Signal n = c.add_not(c.add_and(a, b));
  c.mark_output(buggy ? o : c.add_and(o, n));
  return c;
}

}  // namespace

TEST(MiterTest, EquivalentCircuitsGiveUnsatMiter) {
  const CnfFormula f = miter_cnf(xor_direct(), xor_from_and_or(false));
  EXPECT_FALSE(testing::brute_force_solve(f).has_value());
}

TEST(MiterTest, BuggedCircuitGivesSatMiter) {
  const CnfFormula f = miter_cnf(xor_direct(), xor_from_and_or(true));
  EXPECT_TRUE(testing::brute_force_solve(f).has_value());
}

TEST(ParityCircuitTest, ChainAndTreeComputeParity) {
  for (const std::size_t width : {3u, 5u, 8u}) {
    const Circuit chain = parity_chain(width);
    const Circuit tree = parity_tree(width, /*inject_bug=*/false);
    for (unsigned bits = 0; bits < (1u << width); ++bits) {
      std::vector<bool> in;
      bool parity = false;
      for (std::size_t i = 0; i < width; ++i) {
        const bool b = (bits >> i) & 1;
        in.push_back(b);
        parity ^= b;
      }
      EXPECT_EQ(chain.simulate(in)[chain.outputs()[0]], parity);
      EXPECT_EQ(tree.simulate(in)[tree.outputs()[0]], parity);
    }
  }
}

TEST(ParityCircuitTest, BuggedTreeDiffersSomewhere) {
  const std::size_t width = 6;
  const Circuit good = parity_tree(width, false);
  const Circuit bad = parity_tree(width, true);
  bool differs = false;
  for (unsigned bits = 0; bits < (1u << width) && !differs; ++bits) {
    std::vector<bool> in;
    for (std::size_t i = 0; i < width; ++i) in.push_back((bits >> i) & 1);
    differs = good.simulate(in)[good.outputs()[0]] !=
              bad.simulate(in)[bad.outputs()[0]];
  }
  EXPECT_TRUE(differs);
}

TEST(ParityEquivalenceTest, MiterStatusMatchesBugFlag) {
  // Small widths are brute-forcible through the solver-independent oracle.
  const CnfFormula unsat = parity_equivalence(4, /*inject_bug=*/false, 3);
  const CnfFormula sat = parity_equivalence(4, /*inject_bug=*/true, 3);
  EXPECT_FALSE(testing::brute_force_solve(unsat).has_value());
  EXPECT_TRUE(testing::brute_force_solve(sat).has_value());
}

TEST(ScrambleTest, PreservesShapeAndChangesOrder) {
  const CnfFormula f = pigeonhole(4, 3);
  const CnfFormula g = scramble(f, 9);
  EXPECT_EQ(g.num_vars(), f.num_vars());
  EXPECT_EQ(g.num_clauses(), f.num_clauses());
  EXPECT_EQ(g.num_literals(), f.num_literals());
  bool any_diff = false;
  for (std::size_t i = 0; i < f.num_clauses() && !any_diff; ++i) {
    any_diff = f.clause(i) != g.clause(i);
  }
  EXPECT_TRUE(any_diff);
}

TEST(ScrambleTest, DeterministicInSeed) {
  const CnfFormula f = pigeonhole(4, 3);
  const CnfFormula a = scramble(f, 5);
  const CnfFormula b = scramble(f, 5);
  for (std::size_t i = 0; i < a.num_clauses(); ++i) {
    EXPECT_EQ(a.clause(i), b.clause(i));
  }
}

// --- dataset -----------------------------------------------------------------

TEST(DatasetTest, SplitIsDeterministicAndNamed) {
  const auto a = generate_split(2022, 12, 5);
  const auto b = generate_split(2022, 12, 5);
  ASSERT_EQ(a.size(), 12u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].formula.num_clauses(), b[i].formula.num_clauses());
    EXPECT_NE(a[i].name.find("2022/"), std::string::npos);
  }
}

TEST(DatasetTest, SplitsForDifferentYearsDiffer) {
  const auto a = generate_split(2016, 6, 5);
  const auto b = generate_split(2017, 6, 5);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].formula.num_clauses() != b[i].formula.num_clauses()) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(DatasetTest, BuildDatasetHasSevenSplits) {
  const Dataset ds = build_dataset(6, 3);
  EXPECT_EQ(ds.split_stats.size(), 7u);
  EXPECT_EQ(ds.train.size(), 36u);
  EXPECT_EQ(ds.test.size(), 6u);
  EXPECT_EQ(ds.split_stats.back().year, 2022);
  for (const SplitStats& st : ds.split_stats) {
    EXPECT_GT(st.avg_vars, 0.0);
    EXPECT_GT(st.avg_clauses, 0.0);
  }
}

TEST(DatasetTest, ComputeStatsAveragesCorrectly) {
  std::vector<NamedInstance> split;
  NamedInstance i1{"a", "fam", CnfFormula(10)};
  i1.formula.add_clause({Lit(0, false)});
  NamedInstance i2{"b", "fam", CnfFormula(20)};
  i2.formula.add_clause({Lit(0, false)});
  i2.formula.add_clause({Lit(1, false)});
  i2.formula.add_clause({Lit(2, false)});
  split.push_back(std::move(i1));
  split.push_back(std::move(i2));
  const SplitStats st = compute_stats(2020, split);
  EXPECT_EQ(st.num_cnfs, 2u);
  EXPECT_DOUBLE_EQ(st.avg_vars, 15.0);
  EXPECT_DOUBLE_EQ(st.avg_clauses, 2.0);
}

}  // namespace
}  // namespace ns::gen
