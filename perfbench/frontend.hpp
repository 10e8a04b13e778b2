#pragma once
/// \file frontend.hpp
/// The NeuroSelect front end as the workloads drive it — DIMACS text →
/// parse → (simplify) → VC/LC graph → tensors → inference session → policy
/// choice — with one span per public layer call, plus the answer checks the
/// workloads share.

#include <memory>
#include <string>

#include "bench.hpp"
#include "nn/models.hpp"
#include "policy/deletion_policy.hpp"
#include "solver/simplify.hpp"
#include "solver/solver.hpp"

namespace perfbench {

/// Loads the checked-in NeuroSelect weights; throws when they do not load.
std::unique_ptr<ns::nn::NeuroSelectModel> load_model(const std::string& path);

struct FrontEnd {
  ns::CnfFormula parsed;
  ns::solver::SimplifyResult simplified;  ///< only when `simplify` was asked
  int chosen = -1;  ///< binary_selection primary; -1 when no inference ran
  ns::policy::PolicyKind policy = ns::policy::PolicyKind::kDefault;
};

/// Runs the front end on `dimacs`. Without `simplify` the classifier sees
/// the parsed formula (the incremental engine cannot use root-level
/// rewriting: clauses added later may mention the variables it fixes).
/// Throws on a parse error.
FrontEnd run_front_end(const std::string& dimacs, ns::nn::SatClassifier& model,
                       bool simplify, Probe* probe);

/// Empty when `model` satisfies every clause of `f`, else a diagnostic.
std::string check_model(const ns::CnfFormula& f, const ns::Model& model);

/// Self-test corruption: makes `model` falsify the first clause of `f`.
/// False when there is no such clause to falsify.
bool falsify_first_clause(const ns::CnfFormula& f, ns::Model& model);

/// Status of `f` from an engine configured unlike every stock engine
/// (Luby restarts, frequency deletion, EVSIDS decay 0.9), for confirming
/// UNSAT answers of instances whose status the generator does not fix.
ns::solver::SatResult reference_status(const ns::CnfFormula& f);

/// Options of that independent engine.
ns::solver::SolverOptions reference_options();

/// One generated input with the status its generator fixes (if any).
struct Instance {
  ns::CnfFormula formula;
  Status status = Status::kUnknown;
};

/// The search-bound corpus of hard_solve and race: item `index` of run seed
/// `seed` is random 3-SAT at the 4.26 threshold over min_vars..max_vars
/// variables (even items) or scrambled pigeonhole PHP(holes + 1, holes),
/// always UNSAT (odd items).
Instance threshold_or_pigeonhole(std::uint64_t seed, std::uint64_t index,
                                 std::size_t min_vars, std::size_t max_vars,
                                 std::size_t holes);

/// Checks a SAT/UNSAT answer on `original` against the generator's known
/// status, falling back to reference_status() for unknown UNSAT answers.
std::string check_answer(const ns::CnfFormula& original, Status known,
                         ns::solver::SatResult result, const ns::Model& model);

}  // namespace perfbench
