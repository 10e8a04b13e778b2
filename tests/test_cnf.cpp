#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "cnf/dimacs.hpp"
#include "cnf/formula.hpp"
#include "cnf/types.hpp"
#include "gen/generators.hpp"

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
  EXPECT_EQ(r.line, 1u);
  EXPECT_EQ(r.error, "clause before 'p cnf' header");
  const ParseResult empty = parse_dimacs_string("c only a comment\n");
  EXPECT_FALSE(empty.ok);
  EXPECT_EQ(empty.line, 0u);
  EXPECT_EQ(empty.error, "missing 'p cnf' header");
}

TEST(DimacsTest, RejectsDuplicateHeader) {
  const ParseResult r = parse_dimacs_string("p cnf 2 1\np cnf 2 1\n1 0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.line, 2u);
  EXPECT_EQ(r.error, "duplicate 'p' header");
}

TEST(DimacsTest, RejectsOutOfRangeLiteral) {
  // |-2147483648| is one past the largest declarable variable count, so it
  // is out of range under any header.
  for (const char* text : {"p cnf 2 1\n3 0\n", "p cnf 3 1\n1 -2147483648 0\n",
                           "p cnf 2147483647 1\n1 -2147483648 0\n"}) {
    const ParseResult r = parse_dimacs_string(text);
    EXPECT_FALSE(r.ok) << text;
    EXPECT_EQ(r.line, 2u) << text;
    EXPECT_NE(r.error.find("exceeds declared variable count"),
              std::string::npos)
        << r.error;
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
  EXPECT_EQ(r.line, 2u);
  EXPECT_EQ(r.error, "unexpected token in clause");
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

/// The line-by-line reader this library shipped before the one-pass
/// reader, verbatim: `std::getline` per line and `std::istringstream >>
/// int` per literal. It defines the dialect the current reader must keep.
ParseResult parse_dimacs_by_lines(std::istream& in) {
  const auto fail = [](std::size_t line, std::string message) {
    ParseResult r;
    r.ok = false;
    r.line = line;
    r.error = std::move(message);
    return r;
  };
  ParseResult result;
  CnfFormula formula;
  bool saw_header = false;
  std::size_t declared_vars = 0;
  std::size_t declared_clauses = 0;
  std::vector<int> pending;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == 'c') continue;
    if (line[0] == 'p') {
      if (saw_header) return fail(line_no, "duplicate 'p' header");
      std::istringstream hs(line);
      std::string p, fmt;
      hs >> p >> fmt >> declared_vars >> declared_clauses;
      if (!hs || fmt != "cnf") return fail(line_no, "malformed 'p cnf' header");
      if (declared_vars > static_cast<std::size_t>(INT_MAX)) {
        return fail(line_no, "variable count " + std::to_string(declared_vars) +
                                 " exceeds the DIMACS literal range");
      }
      saw_header = true;
      formula = CnfFormula(declared_vars);
      continue;
    }
    if (!saw_header) return fail(line_no, "clause before 'p cnf' header");
    std::istringstream ls(line);
    int lit = 0;
    while (ls >> lit) {
      if (lit == 0) {
        formula.add_clause_dimacs(pending);
        pending.clear();
      } else {
        const std::int64_t magnitude =
            lit < 0 ? -static_cast<std::int64_t>(lit) : lit;
        if (static_cast<std::uint64_t>(magnitude) > declared_vars) {
          return fail(line_no, "literal " + std::to_string(lit) +
                                   " exceeds declared variable count");
        }
        pending.push_back(lit);
      }
    }
    if (!ls.eof()) return fail(line_no, "unexpected token in clause");
  }
  if (!saw_header) return fail(0, "missing 'p cnf' header");
  if (!pending.empty()) formula.add_clause_dimacs(pending);
  result.ok = true;
  result.formula = std::move(formula);
  return result;
}

/// Both entry points of the reader give `text` exactly the line reader's
/// result: ok, line, error, and the formula clause by clause.
void expect_same_as_line_reader(const std::string& text) {
  std::istringstream ref_in(text);
  const ParseResult want = parse_dimacs_by_lines(ref_in);
  std::istringstream in(text);
  for (const ParseResult& got : {parse_dimacs_string(text), parse_dimacs(in)}) {
    ASSERT_EQ(got.ok, want.ok) << testing::PrintToString(text) << ": "
                               << got.error << " vs " << want.error;
    EXPECT_EQ(got.line, want.line) << testing::PrintToString(text);
    EXPECT_EQ(got.error, want.error) << testing::PrintToString(text);
    EXPECT_EQ(got.formula.num_vars(), want.formula.num_vars())
        << testing::PrintToString(text);
    EXPECT_EQ(got.formula.clauses(), want.formula.clauses())
        << testing::PrintToString(text);
  }
}

TEST(DimacsTest, RoundTripsEveryGeneratorFamily) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<CnfFormula> family = {
        gen::random_ksat(40, 170, 3, seed),
        gen::pigeonhole(5, 4),
        gen::graph_coloring(12, 0.3, 3, seed),
        gen::xor_chain(20, seed % 2 == 0, seed),
        gen::community_sat(60, 255, 4, 0.8, seed),
        gen::adder_equivalence(4, seed % 2 == 1, seed),
        gen::parity_equivalence(6, seed % 2 == 1, seed),
        gen::scramble(gen::adder_equivalence(3, false, seed), seed + 7),
    };
    for (const CnfFormula& f : family) {
      const std::string text = to_dimacs_string(f);
      std::istringstream in(text);
      for (const ParseResult& r :
           {parse_dimacs_string(text), parse_dimacs(in)}) {
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.formula.num_vars(), f.num_vars());
        EXPECT_EQ(r.formula.clauses(), f.clauses());
      }
    }
  }
}

TEST(DimacsTest, DialectMatchesLineReader) {
  const std::string cases[] = {
      // C-locale whitespace: tabs, \r\n line ends, \v and \f.
      "p cnf 3 2\n1\t-2\t0\n\t3 0\n",
      "c crlf\r\np cnf 3 2\r\n1 -2 0\r\n3 0\r\n",
      "p cnf 3 1\n1\v2\f3 0\n",
      "\r\np cnf 1 1\n1 0\n",  // a lone \r before the header is a clause line
      // Signs, and literals that need no separating blank.
      "p cnf 3 1\n+3 -1 0\n",
      "p cnf 3 1\n1-2+3 0\n",
      "p cnf 3 1\n007 -0003 0\n",
      "p cnf 3 1\n1 +-2 0\n",
      "p cnf 3 1\n1 - 2 0\n",
      // Clause layout: spanning lines, a missing final 0, empty clauses.
      "p cnf 3 1\n1\n2\n3 0\n",
      "p cnf 3 2\n1 2 0\n3",
      "p cnf 3 2\n1 2 0\n3\n",
      "p cnf 2 2\n0\n1 0\n",
      // Empty lines and comments; only column 0 makes a comment.
      "\nc x\np cnf 2 1\n\nc y\n1 2 0\n\n",
      "p cnf 2 1\nc 1 2 0\n1 0\n",
      "p cnf 2 1\n c indented\n1 0\n",
      // The int range: ±2147483647 read, -2147483648 refused.
      "p cnf 2147483647 1\n2147483647 -2147483647 0\n",
      "p cnf 2147483647 1\n-2147483648 0\n",
      // Tokens `>> int` cannot read: mid-line they are errors, at the end
      // of a line the stream hits its end and the line is accepted.
      "p cnf 2 1\n1x 0\n",
      "p cnf 2 1\n1 12345678901 0\n",
      "p cnf 2 1\n1 12345678901\n2 0\n",
      "p cnf 2 1\n1 -2147483649 0\n",
      "p cnf 2 1\n1 -\n2 0\n",
      "p cnf 2 1\n1 +\r\n2 0\n",
      "p cnf 2 1\n1 0 %\n",
      std::string("p cnf 2 1\n1 \0 2 0\n", 17),
      // Headers.
      "p cnf 3\n1 0\n",
      "p dnf 3 1\n1 0\n",
      "p  cnf 3 1 trailing\n1 0\n",
      "p cnf -1 1\n1 0\n",
      "p cnf 3 1\np cnf 3 1\n",
      "1 0\np cnf 1 1\n",
      "",
      "c only\n",
      "p cnf 2 1\n3 0\n",
  };
  for (const std::string& text : cases) expect_same_as_line_reader(text);
}

/// Random token soup after a header: whitespace of every kind, signs,
/// digit runs (some past the int range), comment and header letters and
/// junk, in random lines.
TEST(DimacsTest, RandomInputsMatchLineReader) {
  std::mt19937 rng(20240611u);
  const char* const pieces[] = {" ", "\t", "\r", "\v", "\f", "\n", "\n",
                                "\n", "-", "+", "0", "0", "1", "2", "7",
                                "13", "2147483647", "99999999999", "c",
                                "p", "x", "p cnf 9 4\n"};
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text = trial % 5 == 0 ? "" : "p cnf 9 4\n";
    const int n = static_cast<int>(rng() % 40);
    for (int i = 0; i < n; ++i) text += pieces[rng() % std::size(pieces)];
    expect_same_as_line_reader(text);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace ns
