#include <gtest/gtest.h>

#include <sstream>

#include "gen/generators.hpp"
#include "solver/proof.hpp"
#include "solver/solver.hpp"

namespace ns::solver {
namespace {

/// Solves `f` with an in-memory proof tracer attached.
std::pair<SatResult, InMemoryProofTracer> solve_with_proof(
    const CnfFormula& f, SolverOptions opts = {}) {
  std::pair<SatResult, InMemoryProofTracer> out{SatResult::kUnknown, {}};
  Solver s(opts);
  s.load(f);
  s.set_proof_tracer(&out.second);
  out.first = s.solve().result;
  return out;
}

TEST(ProofTest, TrivialContradictionYieldsEmptyClauseProof) {
  CnfFormula f(1);
  f.add_clause({Lit(0, false)});
  f.add_clause({Lit(0, true)});
  auto [result, proof] = solve_with_proof(f);
  EXPECT_EQ(result, SatResult::kUnsat);
  EXPECT_TRUE(proof.ends_with_empty_clause());
  EXPECT_TRUE(verify_unsat_proof(f, proof.steps()).ok);
}

TEST(ProofTest, PigeonholeProofVerifies) {
  for (std::size_t holes : {3u, 4u, 5u}) {
    const CnfFormula f = gen::pigeonhole(holes + 1, holes);
    auto [result, proof] = solve_with_proof(f);
    ASSERT_EQ(result, SatResult::kUnsat);
    ASSERT_TRUE(proof.ends_with_empty_clause());
    const ProofCheckResult check = verify_unsat_proof(f, proof.steps());
    EXPECT_TRUE(check.ok) << "step " << check.failed_step << ": "
                          << check.error;
  }
}

TEST(ProofTest, XorChainProofVerifies) {
  const CnfFormula f = gen::xor_chain(25, /*contradictory=*/true, 3);
  auto [result, proof] = solve_with_proof(f);
  ASSERT_EQ(result, SatResult::kUnsat);
  EXPECT_TRUE(verify_unsat_proof(f, proof.steps()).ok);
}

TEST(ProofTest, ProofWithDeletionsVerifies) {
  // Force clause-DB reductions during the proof so delete steps appear.
  SolverOptions opts;
  opts.reduce_interval = 20;
  opts.reduce_interval_inc = 10;
  const CnfFormula f = gen::pigeonhole(7, 6);
  auto [result, proof] = solve_with_proof(f, opts);
  ASSERT_EQ(result, SatResult::kUnsat);
  bool has_delete = false;
  for (const ProofStep& s : proof.steps()) has_delete |= s.is_delete;
  EXPECT_TRUE(has_delete) << "reductions should have emitted deletions";
  const ProofCheckResult check = verify_unsat_proof(f, proof.steps());
  EXPECT_TRUE(check.ok) << "step " << check.failed_step << ": "
                        << check.error;
}

TEST(ProofTest, BothPoliciesProduceVerifiableProofs) {
  for (const auto kind :
       {policy::PolicyKind::kDefault, policy::PolicyKind::kFrequency}) {
    SolverOptions opts;
    opts.deletion_policy = kind;
    opts.reduce_interval = 25;
    const CnfFormula f = gen::random_ksat(14, 77, 3, 5);  // over-constrained
    auto [result, proof] = solve_with_proof(f, opts);
    if (result == SatResult::kUnsat) {
      EXPECT_TRUE(verify_unsat_proof(f, proof.steps()).ok);
    }
  }
}

TEST(ProofTest, SatRunDoesNotDeriveEmptyClause) {
  const CnfFormula f = gen::pigeonhole(4, 4);
  auto [result, proof] = solve_with_proof(f);
  ASSERT_EQ(result, SatResult::kSat);
  EXPECT_FALSE(proof.ends_with_empty_clause());
}

TEST(ProofTest, TamperedProofIsRejected) {
  const CnfFormula f = gen::pigeonhole(5, 4);
  auto [result, proof] = solve_with_proof(f);
  ASSERT_EQ(result, SatResult::kUnsat);
  ASSERT_TRUE(verify_unsat_proof(f, proof.steps()).ok);

  // Dropping a prefix of learned clauses must break RUP somewhere (the
  // final empty clause depends on earlier derivations).
  std::vector<ProofStep> truncated(proof.steps().begin() +
                                       static_cast<long>(
                                           proof.steps().size() / 2),
                                   proof.steps().end());
  EXPECT_FALSE(verify_unsat_proof(f, truncated).ok);

  // An unjustified strong clause must be rejected.
  std::vector<ProofStep> forged;
  forged.push_back(ProofStep{false, {Lit(0, false)}});
  forged.push_back(ProofStep{false, {Lit(0, true)}});
  forged.push_back(ProofStep{false, {}});
  const ProofCheckResult check = verify_unsat_proof(f, forged);
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.failed_step, 0u);
}

TEST(ProofTest, MissingEmptyClauseIsRejected) {
  const CnfFormula f = gen::pigeonhole(5, 4);
  auto [result, proof] = solve_with_proof(f);
  ASSERT_EQ(result, SatResult::kUnsat);
  std::vector<ProofStep> steps = proof.steps();
  steps.pop_back();  // drop the empty clause
  const ProofCheckResult check = verify_unsat_proof(f, steps);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("empty clause"), std::string::npos);
}

// Literals outside the formula or outside `int` are refused, never
// indexed: each of these proofs crashed the checker or was accepted.
TEST(ProofTest, VariableBeyondFormulaIsRefused) {
  CnfFormula f(2);  // p cnf 2 2 / 1 2 0 / -1 2 0
  f.add_clause({Lit(0, false), Lit(1, false)});
  f.add_clause({Lit(0, true), Lit(1, false)});
  std::vector<ProofStep> steps;
  ASSERT_TRUE(parse_drat_text("5000 0\n", steps));
  const ProofCheckResult check = verify_unsat_proof(f, steps);
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.failed_step, 0u);
  EXPECT_NE(check.error.find("5000"), std::string::npos);

  // A deletion naming such a variable is refused the same way.
  const ProofCheckResult del =
      verify_unsat_proof(f, {ProofStep{true, {Lit(7, false)}}});
  EXPECT_FALSE(del.ok);
  EXPECT_EQ(del.failed_step, 0u);
}

TEST(DratParseTest, LiteralsOutsideIntAreMalformed) {
  std::vector<ProofStep> steps;
  EXPECT_FALSE(parse_drat_text("-2147483648 0\n", steps));
  EXPECT_FALSE(parse_drat_text("99999999999 0\n", steps));
  EXPECT_FALSE(parse_drat_text("2147483648 0\n", steps));
  // 2^32 + 2 used to truncate to the literal 2.
  EXPECT_FALSE(parse_drat_text("4294967298 0\n0\n", steps));
  EXPECT_FALSE(parse_drat_text("d 1 -4294967298 0\n", steps));
}

TEST(DratParseTest, TokenMustBeOneWholeInt) {
  std::vector<ProofStep> steps;
  EXPECT_FALSE(parse_drat_text("1-2 0\n", steps));
  EXPECT_FALSE(parse_drat_text("1 2x 0\n", steps));
  // The int extremes that do name a variable, and CRLF line ends, parse.
  ASSERT_TRUE(
      parse_drat_text("2147483647 -2147483647 0\r\nd 1 0\n0\n", steps));
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].lits[0].to_dimacs(), 2147483647);
  EXPECT_EQ(steps[0].lits[1].to_dimacs(), -2147483647);
  EXPECT_TRUE(steps[1].is_delete);
  EXPECT_TRUE(steps[2].lits.empty());
}

TEST(DratWriterTest, EmitsStandardSyntax) {
  std::ostringstream os;
  DratTextWriter writer(os);
  const Lit lits[] = {Lit(0, false), Lit(2, true)};
  writer.on_add(lits);
  writer.on_delete(lits);
  EXPECT_EQ(os.str(), "1 -3 0\nd 1 -3 0\n");
}

TEST(DratWriterTest, EndToEndTextProof) {
  const CnfFormula f = gen::pigeonhole(4, 3);
  std::ostringstream os;
  DratTextWriter writer(os);
  Solver s{SolverOptions{}};
  s.load(f);
  s.set_proof_tracer(&writer);
  ASSERT_EQ(s.solve().result, SatResult::kUnsat);
  const std::string text = os.str();
  EXPECT_FALSE(text.empty());
  // Must end with the empty clause line "0".
  EXPECT_NE(text.rfind("0\n"), std::string::npos);
}

}  // namespace
}  // namespace ns::solver
