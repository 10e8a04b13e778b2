#include <gtest/gtest.h>

#include <sstream>

#include "cnf/dimacs.hpp"
#include "cnf/formula.hpp"
#include "cnf/types.hpp"

namespace ns {
namespace {

// --- Lit -----------------------------------------------------------------

TEST(LitTest, EncodingRoundTrips) {
  const Lit a(3, false);
  EXPECT_EQ(a.var(), 3u);
  EXPECT_FALSE(a.negated());
  EXPECT_EQ(a.code(), 6u);

  const Lit b(3, true);
  EXPECT_EQ(b.var(), 3u);
  EXPECT_TRUE(b.negated());
  EXPECT_EQ(b.code(), 7u);
}

TEST(LitTest, NegationIsInvolution) {
  for (Var v = 0; v < 10; ++v) {
    for (bool neg : {false, true}) {
      const Lit l(v, neg);
      EXPECT_EQ(~~l, l);
      EXPECT_NE(~l, l);
      EXPECT_EQ((~l).var(), l.var());
      EXPECT_EQ((~l).negated(), !l.negated());
    }
  }
}

TEST(LitTest, DimacsConversion) {
  EXPECT_EQ(Lit::from_dimacs(1), Lit(0, false));
  EXPECT_EQ(Lit::from_dimacs(-1), Lit(0, true));
  EXPECT_EQ(Lit::from_dimacs(5), Lit(4, false));
  EXPECT_EQ(Lit::from_dimacs(-7).to_dimacs(), -7);
  EXPECT_EQ(Lit::from_dimacs(42).to_dimacs(), 42);
}

TEST(LitTest, UndefIsDistinct) {
  EXPECT_FALSE(Lit::undef().is_defined());
  EXPECT_TRUE(Lit(0, false).is_defined());
  EXPECT_EQ(Lit::undef().to_string(), "<undef>");
}

TEST(LitTest, OrderingFollowsCode) {
  EXPECT_LT(Lit(0, false), Lit(0, true));
  EXPECT_LT(Lit(0, true), Lit(1, false));
}

TEST(LBoolTest, NegateTernary) {
  EXPECT_EQ(negate(LBool::kTrue), LBool::kFalse);
  EXPECT_EQ(negate(LBool::kFalse), LBool::kTrue);
  EXPECT_EQ(negate(LBool::kUndef), LBool::kUndef);
}

// --- CnfFormula ----------------------------------------------------------

TEST(FormulaTest, AddClauseRegistersVariables) {
  CnfFormula f;
  f.add_clause({Lit(4, false), Lit(2, true)});
  EXPECT_EQ(f.num_vars(), 5u);
  EXPECT_EQ(f.num_clauses(), 1u);
  EXPECT_EQ(f.num_literals(), 2u);
}

TEST(FormulaTest, DuplicateLiteralsRemoved) {
  CnfFormula f(3);
  f.add_clause({Lit(0, false), Lit(0, false), Lit(1, true)});
  ASSERT_EQ(f.num_clauses(), 1u);
  EXPECT_EQ(f.clause(0).size(), 2u);
}

TEST(FormulaTest, TautologyDropped) {
  CnfFormula f(2);
  EXPECT_FALSE(f.add_clause({Lit(0, false), Lit(0, true)}));
  EXPECT_EQ(f.num_clauses(), 0u);
}

TEST(FormulaTest, EmptyClauseMarksUnsat) {
  CnfFormula f(1);
  EXPECT_FALSE(f.has_empty_clause());
  f.add_clause({});
  EXPECT_TRUE(f.has_empty_clause());
}

TEST(FormulaTest, SatisfiedByEvaluatesCorrectly) {
  // (x0 ∨ x1) ∧ (~x1 ∨ x2)
  CnfFormula f(3);
  f.add_clause({Lit(0, false), Lit(1, false)});
  f.add_clause({Lit(1, true), Lit(2, false)});
  EXPECT_TRUE(f.satisfied_by({true, false, false}));
  EXPECT_TRUE(f.satisfied_by({false, true, true}));
  EXPECT_FALSE(f.satisfied_by({false, true, false}));
  EXPECT_FALSE(f.satisfied_by({false, false, false}));
}

TEST(FormulaTest, NewVarGrowsUniverse) {
  CnfFormula f;
  const Var a = f.new_var();
  const Var b = f.new_var();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(f.num_vars(), 2u);
}

TEST(FormulaTest, SummaryMentionsCounts) {
  CnfFormula f(2);
  f.add_clause({Lit(0, false), Lit(1, false)});
  EXPECT_NE(f.summary().find("vars=2"), std::string::npos);
  EXPECT_NE(f.summary().find("clauses=1"), std::string::npos);
}

// --- DIMACS --------------------------------------------------------------

TEST(DimacsTest, ParsesSimpleFormula) {
  const std::string text =
      "c a comment\n"
      "p cnf 3 2\n"
      "1 -2 0\n"
      "2 3 0\n";
  const ParseResult r = parse_dimacs_string(text);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.formula.num_vars(), 3u);
  EXPECT_EQ(r.formula.num_clauses(), 2u);
}

TEST(DimacsTest, ClausesMaySpanLines) {
  const std::string text = "p cnf 4 1\n1 2\n3 4 0\n";
  const ParseResult r = parse_dimacs_string(text);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.formula.num_clauses(), 1u);
  EXPECT_EQ(r.formula.clause(0).size(), 4u);
}

TEST(DimacsTest, ToleratesMissingTrailingZero) {
  const ParseResult r = parse_dimacs_string("p cnf 2 1\n1 2\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.formula.num_clauses(), 1u);
}

TEST(DimacsTest, RejectsMissingHeader) {
  const ParseResult r = parse_dimacs_string("1 2 0\n");
  EXPECT_FALSE(r.ok);
}

TEST(DimacsTest, RejectsDuplicateHeader) {
  const ParseResult r = parse_dimacs_string("p cnf 2 1\np cnf 2 1\n1 0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.line, 2u);
}

TEST(DimacsTest, RejectsOutOfRangeLiteral) {
  // |-2147483648| is one past the largest declarable variable count, so it
  // is out of range under any header.
  for (const char* text : {"p cnf 2 1\n3 0\n", "p cnf 3 1\n1 -2147483648 0\n",
                           "p cnf 2147483647 1\n1 -2147483648 0\n"}) {
    const ParseResult r = parse_dimacs_string(text);
    EXPECT_FALSE(r.ok) << text;
    EXPECT_EQ(r.line, 2u) << text;
  }
}

TEST(DimacsTest, RejectsVariableCountBeyondLiteralRange) {
  const ParseResult r =
      parse_dimacs_string("c too many variables\np cnf 3000000000 1\n1 0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.line, 2u);
  EXPECT_NE(r.error.find("3000000000"), std::string::npos) << r.error;

  // The largest count, and its largest literal, still parse.
  const ParseResult max =
      parse_dimacs_string("p cnf 2147483647 1\n-2147483647 1 0\n");
  ASSERT_TRUE(max.ok) << max.error;
  ASSERT_EQ(max.formula.num_clauses(), 1u);
  EXPECT_EQ(max.formula.clause(0).back(), Lit(2147483646u, true));
}

TEST(DimacsTest, RejectsGarbageToken) {
  const ParseResult r = parse_dimacs_string("p cnf 2 1\n1 x 0\n");
  EXPECT_FALSE(r.ok);
}

TEST(DimacsTest, WriteParseRoundTrip) {
  CnfFormula f(4);
  f.add_clause({Lit(0, false), Lit(3, true)});
  f.add_clause({Lit(1, false), Lit(2, false), Lit(3, false)});
  const std::string text = to_dimacs_string(f);
  const ParseResult r = parse_dimacs_string(text);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.formula.num_clauses(), f.num_clauses());
  for (std::size_t i = 0; i < f.num_clauses(); ++i) {
    EXPECT_EQ(r.formula.clause(i), f.clause(i));
  }
}

TEST(DimacsTest, MissingFileReportsError) {
  const ParseResult r = parse_dimacs_file("/nonexistent/path.cnf");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace ns
