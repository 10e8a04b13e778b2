#pragma once
/// \file proof.hpp
/// DRAT proof logging and checking.
///
/// Modern SAT solvers certify UNSAT answers with DRAT proofs: the sequence
/// of learned-clause additions (each of which must be RUP — derivable by
/// reverse unit propagation) and clause deletions. The Solver emits proof
/// events through the `ProofTracer` interface; two implementations are
/// provided — an in-memory trace for programmatic checking, and a textual
/// DRAT writer compatible with standard tooling (`drat-trim` syntax).
///
/// `verify_unsat_proof` is a self-contained RUP checker: it replays the
/// trace against the original formula and confirms that every added clause
/// follows by unit propagation and that the trace ends in the empty clause.
/// It is intentionally simple (no watched literals) — intended for tests
/// and moderate instance sizes, not competition-scale proofs.

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "cnf/formula.hpp"
#include "cnf/types.hpp"

namespace ns::solver {

/// One proof event.
struct ProofStep {
  bool is_delete = false;
  std::vector<Lit> lits;  ///< empty vector = the empty clause (UNSAT)
};

/// Receiver of proof events emitted during search.
class ProofTracer {
 public:
  virtual ~ProofTracer() = default;

  /// A clause was derived (learned); must be RUP w.r.t. the current set.
  virtual void on_add(std::span<const Lit> lits) = 0;

  /// A clause was removed from the database.
  virtual void on_delete(std::span<const Lit> lits) = 0;
};

/// Accumulates the proof in memory for later verification.
class InMemoryProofTracer final : public ProofTracer {
 public:
  void on_add(std::span<const Lit> lits) override {
    steps_.push_back(ProofStep{false, {lits.begin(), lits.end()}});
  }
  void on_delete(std::span<const Lit> lits) override {
    steps_.push_back(ProofStep{true, {lits.begin(), lits.end()}});
  }

  const std::vector<ProofStep>& steps() const { return steps_; }
  bool ends_with_empty_clause() const {
    return !steps_.empty() && !steps_.back().is_delete &&
           steps_.back().lits.empty();
  }

 private:
  std::vector<ProofStep> steps_;
};

/// Streams the proof in textual DRAT format ("d" prefix for deletions,
/// DIMACS literals, 0-terminated lines).
class DratTextWriter final : public ProofTracer {
 public:
  explicit DratTextWriter(std::ostream& out) : out_(out) {}
  void on_add(std::span<const Lit> lits) override;
  void on_delete(std::span<const Lit> lits) override;

 private:
  std::ostream& out_;
};

/// Result of proof verification.
struct ProofCheckResult {
  bool ok = false;
  std::string error;        ///< diagnostic when !ok
  std::size_t failed_step = 0;  ///< index of the offending step when !ok
};

/// Replays `steps` against `formula` and checks that every addition is RUP
/// and that the proof derives the empty clause. A step naming a variable
/// the formula does not have is refused.
ProofCheckResult verify_unsat_proof(const CnfFormula& formula,
                                    const std::vector<ProofStep>& steps);

/// Parses a textual DRAT proof (the DratTextWriter format / drat-trim
/// syntax: optional "d " prefix, DIMACS literals, 0 terminator, "c"
/// comments). Returns false on malformed input, including a literal that
/// is not a whole `int` token or is INT_MIN.
bool parse_drat_text(const std::string& text, std::vector<ProofStep>& out);

}  // namespace ns::solver
