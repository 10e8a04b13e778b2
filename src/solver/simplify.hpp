#pragma once
/// \file simplify.hpp
/// Root-level preprocessing, independent of the CDCL engine:
///   - unit propagation to fixpoint (fixes variables, shortens clauses)
///   - pure-literal elimination (variables with one polarity are fixed)
///   - forward subsumption, which also removes duplicate clauses
///
/// The output is an equisatisfiable formula over the SAME variable
/// universe, plus the root-level assignments discovered; a model of the
/// simplified formula extends to a model of the original by applying
/// `fixed` and assigning eliminated pure literals their preferred polarity
/// (`complete_model` does this).

#include <cstdint>
#include <optional>
#include <vector>

#include "cnf/formula.hpp"

namespace ns::solver {

/// Result of preprocessing.
struct SimplifyResult {
  /// False when preprocessing already derived a contradiction (the
  /// simplified formula then contains the empty clause).
  bool consistent = true;

  /// The simplified formula (same num_vars as the input).
  CnfFormula formula;

  /// Per-variable root-level values discovered (units, pure literals);
  /// kUndef for untouched variables.
  std::vector<LBool> fixed;

  /// Statistics.
  std::size_t fixed_units = 0;       ///< variables fixed by unit propagation
  std::size_t fixed_pures = 0;       ///< variables fixed as pure literals
  std::size_t removed_clauses = 0;   ///< satisfied/duplicate/subsumed clauses
  std::size_t removed_literals = 0;  ///< falsified literals stripped

  /// Extends a model of the simplified formula to the full universe by
  /// overlaying the fixed assignments. `model` must have num_vars entries.
  Model complete_model(Model model) const;
};

/// Preprocessing knobs.
struct SimplifyOptions {
  /// Pure-literal elimination preserves satisfiability but is not a RUP
  /// step, so flows that must stay DRAT-checkable (the solver's built-in
  /// `preprocess` option) disable it.
  bool pure_literals = true;
};

/// Runs preprocessing to fixpoint.
SimplifyResult simplify(const CnfFormula& input,
                        const SimplifyOptions& options = {});

}  // namespace ns::solver
