#pragma once
/// \file solver.hpp
/// A conflict-driven clause-learning (CDCL) SAT solver in the Kissat
/// lineage, decomposed into layered search subsystems wired through one
/// narrow `SearchContext`:
///
///   Trail            values/levels/reasons + the assignment stack
///   Propagator       two-watched-literal BCP over a flat watcher arena,
///                    binary clauses resolved inline from the watch entry
///   Analyzer         first-UIP learning + recursive clause minimization
///   Decider          EVSIDS heap / VMTF queue, phase saving
///   RestartScheduler Luby and Glucose-EMA restart policies
///   ReduceScheduler  default or frequency deletion + arena GC (paper Sec. 3)
///
/// The Solver class itself is only the orchestration loop: it owns the
/// context and the subsystems, sequences propagate → analyze → backtrack →
/// learn → decide, and exposes the public solve API. Engine events are
/// published through an optional `EngineListener` (see hooks.hpp) at zero
/// cost when unused.
///
/// Feature set: two-watched-literal BCP with blocking literals, first-UIP
/// conflict analysis with recursive clause minimization, EVSIDS and VMTF
/// decision heuristics, phase saving, Luby and Glucose-EMA restarts,
/// glue-tiered clause retention, compacting clause-arena garbage
/// collection, and deterministic propagation/conflict budgets that stand in
/// for wall-clock timeouts.

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "cnf/formula.hpp"
#include "cnf/types.hpp"
#include "solver/analyze.hpp"
#include "solver/context.hpp"
#include "solver/decide.hpp"
#include "solver/hooks.hpp"
#include "solver/options.hpp"
#include "solver/proof.hpp"
#include "solver/propagate.hpp"
#include "solver/reduce.hpp"
#include "solver/restart.hpp"
#include "solver/stats.hpp"

namespace ns::solver {

/// Full result bundle of one solve() query. (SatResult and StopReason live
/// in stats.hpp so the engine hooks can name them too.)
struct SolveOutcome {
  SatResult result = SatResult::kUnknown;
  Model model;        ///< complete assignment; valid only when kSat
  Statistics stats;   ///< per-query delta (lifetime totals: Solver::stats())
  /// Final-conflict assumption core: on kUnsat under assumptions, a subset
  /// of the assumptions whose conjunction with the formula is already
  /// unsatisfiable (empty when the formula is unsatisfiable on its own).
  std::vector<Lit> core;
  StopReason why = StopReason::kNone;  ///< why the result is kUnknown
};

/// The CDCL solver: orchestrates the search subsystems.
///
/// A Solver is a long-lived incremental engine. Usage: construct with
/// options, `load` a formula once, then alternate freely between
/// `add_clause` and `solve(assumptions)` — decision-heuristic state,
/// learned clauses, and the restart/reduce schedules stay warm across
/// queries. Loading a new formula resets all state. The lifecycle is a
/// two-state machine (see DESIGN.md §14): ADDING (between queries; clause
/// addition and GC are legal) and SOLVING (inside solve(); the engine
/// backtracks to root on entry and returns to ADDING on every exit path).
class Solver {
 public:
  /// Per-query resource budgets (0 = unlimited). Checked against the
  /// counters accumulated *since the query began*, unlike the lifetime
  /// `SolverOptions::max_*` limits; a stream of budgeted queries each gets
  /// the full allowance.
  struct Budget {
    std::uint64_t conflicts = 0;
    std::uint64_t propagations = 0;
    std::uint64_t ticks = 0;
  };

  /// Lifecycle state, for introspection (see DESIGN.md §14).
  enum class EngineState : std::uint8_t { kAdding, kSolving };

  explicit Solver(SolverOptions options = {});

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Resets the solver and loads `formula`.
  void load(const CnfFormula& formula);

  /// Runs the CDCL search until SAT/UNSAT or a budget expires.
  SolveOutcome solve();

  /// Incremental interface: solves under the conjunction of `assumptions`.
  SolveOutcome solve(const std::vector<Lit>& assumptions);

  /// Incremental interface: solves under the conjunction of `assumptions`
  /// (literals decided before any free decision). On kUnsat, the outcome's
  /// `core` (also `failed_assumptions()`) holds a subset of the assumptions
  /// whose conjunction with the formula is already unsatisfiable (the
  /// "failed core"; empty when the formula is unsatisfiable on its own).
  /// The solver can be re-invoked with different assumptions without
  /// reloading.
  SolveOutcome solve_with_assumptions(std::span<const Lit> assumptions);

  /// Adds a clause between queries (legal only in the ADDING state). The
  /// engine backtracks to root, folds in root-level assignments, and
  /// dedupes/tautology-checks the literals; propagation to fixpoint happens
  /// at the next solve(). Returns false once the formula is root-level
  /// inconsistent (like MiniSat's addClause). Throws std::invalid_argument
  /// for an undefined literal or one outside the loaded formula's
  /// variables, and std::logic_error while a DRAT tracer is attached
  /// (clauses added after load are not part of the traced input); a
  /// refused call leaves the engine untouched.
  bool add_clause(std::span<const Lit> lits);

  /// Sets the per-query budgets applied to subsequent solve() calls.
  void set_budget(const Budget& b) { budget_ = b; }
  const Budget& budget() const { return budget_; }

  /// Requests that the current (or next) solve() stop at the next budget
  /// checkpoint with kUnknown / StopReason::kInterrupted. Safe to call from
  /// another thread; sticky until clear_interrupt() (MiniSat semantics).
  ///
  /// Racing contract (see DESIGN.md §15): the flag is a plain relaxed
  /// atomic, so it is safe in every engine state — before load(), before
  /// the first solve() after load (the query returns immediately with
  /// kInterrupted), and concurrent with deferred clause-arena GC (the
  /// collector never reads the flag; the next stop_reason() checkpoint
  /// after the collection observes it). A cancelled query's outcome always
  /// carries `SolveOutcome::why == StopReason::kInterrupted`.
  void interrupt() { interrupted_.store(true, std::memory_order_relaxed); }
  void clear_interrupt() {
    interrupted_.store(false, std::memory_order_relaxed);
  }
  bool interrupted() const {
    return interrupted_.load(std::memory_order_relaxed);
  }

  /// Cross-thread progress probe for portfolio racing: a monotone lower
  /// bound on the engine's lifetime tick counter, refreshed at every budget
  /// checkpoint (each conflict and each decision) and exact whenever the
  /// engine is between queries. Readers on other threads use it to prove an
  /// engine has already passed a rival's finishing tick count — the probe
  /// only ever under-reports, so such a proof is never wrong. Reset to 0 by
  /// load(). One relaxed store per checkpoint; unmeasurable on the solve
  /// hot path.
  std::uint64_t ticks_observed() const {
    return tick_watermark_.load(std::memory_order_relaxed);
  }

  /// Forces a compacting clause-arena collection now (legal only in the
  /// ADDING state): compacts the ClauseDb, remaps trail reasons and the
  /// learned list, and rewrites the watch lists in place (order-preserving,
  /// so the search trajectory is unaffected). With `gc_frac > 0` the solver
  /// triggers this automatically once the dead fraction of the arena
  /// reaches the threshold; forcing it is for tests and memory pressure.
  void garbage_collect();

  /// Current lifecycle state.
  EngineState state() const { return state_; }

  /// Failed core of the last kUnsat solve_with_assumptions() call.
  const std::vector<Lit>& failed_assumptions() const {
    return failed_assumptions_;
  }

  /// Engine-owned model of the last kSat query (empty otherwise); valid
  /// until the next solve(). With `options.materialize_results == false`
  /// this is the only way to read the model — the buffer is reused across
  /// queries, so warm streams extract it without heap allocation.
  const Model& last_model() const { return model_; }

  /// Lifetime counters, accumulated across all queries since load(). Note
  /// `max_trail` here is the watermark of the *current* query (it re-arms
  /// at each query begin); the lifetime peak is `lifetime_max_trail()`.
  const Statistics& stats() const { return ctx_.stats; }

  /// Highest trail the engine ever reached since load(), across queries.
  std::uint64_t lifetime_max_trail() const {
    return std::max(lifetime_max_trail_, ctx_.stats.max_trail);
  }

  const SolverOptions& options() const { return options_; }

  /// Attaches a DRAT proof tracer (or nullptr to disable). The tracer must
  /// outlive the solve() call; learned-clause additions, reductions, and the
  /// final empty clause of an UNSAT answer are reported to it.
  void set_proof_tracer(ProofTracer* tracer) { ctx_.proof = tracer; }

  /// Attaches an engine event listener (or nullptr to detach). The listener
  /// must outlive the solve() call; see hooks.hpp for the event set. The
  /// invariant auditor (audit::RuntimeAuditor) is one such listener.
  void set_listener(EngineListener* listener) { ctx_.listener = listener; }

  /// Propagation subsystem introspection (tests, benches).
  const Propagator& propagator() const { return propagator_; }

  /// Shared search state, read-only (tests, ns::audit::RuntimeAuditor).
  const SearchContext& context() const { return ctx_; }

  /// Decision subsystem introspection (ns::audit).
  const Decider& decider() const { return decider_; }

 private:
  void reset(std::size_t num_vars);
  bool add_input_clause(const Clause& clause);
  void backtrack(std::uint32_t target_level);
  /// Fills the reusable `model_` buffer from the complete trail.
  void extract_model();

  /// The common query epilogue (every solve() exit path): fills in the
  /// core, computes the per-query stats delta, snapshots the new baseline,
  /// returns to ADDING, and fires on_solve_end.
  SolveOutcome finish_query(SolveOutcome out);

  /// First matching stop condition for the current query: interrupt, then
  /// lifetime limits (options_.max_*, cumulative), then per-query budgets
  /// (budget_, relative to the query baseline). kNone when search may
  /// continue.
  StopReason stop_reason() const;

  /// Runs a compaction + full reference remap, then fires
  /// on_garbage_collect.
  void garbage_collect_now();

  SolverOptions options_;
  SearchContext ctx_;

  Propagator propagator_;
  Analyzer analyzer_;
  Decider decider_;
  RestartScheduler restarts_;
  ReduceScheduler reducer_;

  // incremental solving
  std::vector<Lit> failed_assumptions_;
  Model model_;  ///< reused across queries; see last_model()
  Budget budget_;                        ///< per-query limits (sticky)
  /// Sticky until clear_interrupt().
  /// NS_ATOMIC(relaxed): pure flag — no payload is published through it.
  /// Every budget checkpoint re-reads it, and all outcome fields of a
  /// cancelled query are written by the solving thread itself, so the only
  /// requirement is eventual visibility, which relaxed provides.
  std::atomic<bool> interrupted_{false};
  /// Monotone cross-thread tick mirror (see ticks_observed()); written by
  /// the solving thread at budget checkpoints, read by racer monitors.
  /// NS_ATOMIC(relaxed): racer readers only need a *lower bound* on the
  /// true tick count — a stale value under-reports, which the proof-based
  /// cancellation contract (DESIGN.md §15) tolerates by design, so no
  /// ordering with any other solver state is required.
  mutable std::atomic<std::uint64_t> tick_watermark_{0};
  Statistics query_base_;   ///< stats snapshot at the previous query's end
  std::uint64_t lifetime_max_trail_ = 0;  ///< peak of finished queries
  EngineState state_ = EngineState::kAdding;
};

/// Convenience: solve `formula` with `options`, returning the outcome.
SolveOutcome solve_formula(const CnfFormula& formula,
                           const SolverOptions& options = {});

/// As above, with an engine listener attached for the whole run (set before
/// load, so root-level units emit events too). Listeners observe without
/// perturbing the search trajectory.
SolveOutcome solve_formula(const CnfFormula& formula,
                           const SolverOptions& options,
                           EngineListener* listener);

}  // namespace ns::solver
