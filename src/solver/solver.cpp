#include "solver/solver.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "solver/simplify.hpp"

namespace ns::solver {

Solver::Solver(SolverOptions options)
    : options_(options),
      propagator_(ctx_),
      analyzer_(ctx_),
      decider_(ctx_),
      restarts_(ctx_),
      reducer_(ctx_) {
  ctx_.options = &options_;
}

void Solver::reset(std::size_t num_vars) {
  ctx_.reset(num_vars);
  propagator_.reset(num_vars);
  analyzer_.reset(num_vars);
  decider_.reset(num_vars);
  restarts_.reset();
  reducer_.reset();
  failed_assumptions_.clear();
  query_base_ = Statistics{};
  lifetime_max_trail_ = 0;
  tick_watermark_.store(0, std::memory_order_relaxed);
  state_ = EngineState::kAdding;
  // budget_ and the interrupt flag deliberately survive a reload (MiniSat
  // semantics: budgets apply until changed, interrupts until cleared).
}

bool Solver::add_input_clause(const Clause& clause) {
  // The formula already removed duplicates and tautologies; here we only
  // fold in root-level assignments.
  std::vector<Lit> lits;
  lits.reserve(clause.size());
  for (Lit l : clause) {
    const LBool v = ctx_.value(l);
    if (v == LBool::kTrue) return true;  // satisfied at root
    if (v == LBool::kUndef) lits.push_back(l);
  }
  if (lits.empty()) {
    ctx_.inconsistent = true;
    return false;
  }
  if (lits.size() == 1) {
    ctx_.enqueue(lits[0], kInvalidClause);
    return true;
  }
  const ClauseRef ref = ctx_.db.add(lits, /*learned=*/false, /*glue=*/0);
  propagator_.attach(ref);
  return true;
}

void Solver::load(const CnfFormula& formula) {
  reset(formula.num_vars());
  if (formula.has_empty_clause()) {
    ctx_.inconsistent = true;
    return;
  }
  if (options_.preprocess) {
    // Pure-literal elimination is not RUP-derivable; keep it out of the
    // in-solver pass so emitted DRAT proofs stay checkable.
    SimplifyOptions simplify_options;
    simplify_options.pure_literals = false;
    const SimplifyResult pre = simplify(formula, simplify_options);
    if (!pre.consistent) {
      ctx_.inconsistent = true;
      return;
    }
    // Replay the fixed assignments as root units, then the reduced clauses.
    for (Var v = 0; v < ctx_.num_vars; ++v) {
      if (pre.fixed[v] != LBool::kUndef) {
        ctx_.enqueue(Lit(v, pre.fixed[v] == LBool::kFalse), kInvalidClause);
      }
    }
    for (const Clause& c : pre.formula.clauses()) {
      if (!add_input_clause(c)) return;
    }
    return;
  }
  for (const Clause& c : formula.clauses()) {
    if (!add_input_clause(c)) return;
  }
}

void Solver::backtrack(std::uint32_t target_level) {
  ctx_.trail.shrink_to_level(target_level, [this](Lit l, LBool erased) {
    decider_.on_unassign(l.var(), erased);
  });
  // A backjump below the assumption prefix invalidates the levels above
  // the target; the assertion loop re-establishes them.
  ctx_.trail.assumption_levels =
      std::min(ctx_.trail.assumption_levels, ctx_.trail.decision_level());
}

void Solver::extract_model() {
  model_.resize(ctx_.num_vars);  // reuses capacity after the first query
  for (Var v = 0; v < ctx_.num_vars; ++v) {
    model_[v] = ctx_.trail.value(v) == LBool::kTrue;
  }
}

SolveOutcome Solver::solve() { return solve_with_assumptions({}); }

SolveOutcome Solver::solve(const std::vector<Lit>& assumptions) {
  return solve_with_assumptions(
      std::span<const Lit>(assumptions.data(), assumptions.size()));
}

bool Solver::add_clause(std::span<const Lit> lits) {
  assert(state_ == EngineState::kAdding);
  // Both refusals come before backtrack(0): a refused call leaves the
  // engine exactly as it was.
  if (ctx_.proof != nullptr) {
    throw std::logic_error(
        "Solver::add_clause: a DRAT tracer is attached, and clauses added "
        "after load are outside the traced input");
  }
  for (Lit l : lits) {
    if (!l.is_defined() || l.var() >= ctx_.num_vars) {
      throw std::invalid_argument(
          "Solver::add_clause: literal outside the loaded formula's " +
          std::to_string(ctx_.num_vars) + " variable(s)");
    }
  }
  backtrack(0);  // clause addition is a root-level operation
  if (ctx_.inconsistent) return false;
  // Fold in root assignments, then sort/dedupe and reject tautologies —
  // load() relies on CnfFormula having done this, but raw literal spans
  // arrive unnormalized.
  std::vector<Lit> cleaned;
  cleaned.reserve(lits.size());
  for (Lit l : lits) {
    const LBool v = ctx_.value(l);
    if (v == LBool::kTrue) return true;  // satisfied at root
    if (v == LBool::kUndef) cleaned.push_back(l);
  }
  std::sort(cleaned.begin(), cleaned.end(),
            [](Lit a, Lit b) { return a.code() < b.code(); });
  cleaned.erase(std::unique(cleaned.begin(), cleaned.end()), cleaned.end());
  for (std::size_t i = 1; i < cleaned.size(); ++i) {
    if (cleaned[i] == ~cleaned[i - 1]) return true;  // tautology
  }
  if (cleaned.empty()) {
    ctx_.inconsistent = true;
    return false;
  }
  if (cleaned.size() == 1) {
    // Enqueued as a root unit; propagated to fixpoint by the next solve(),
    // which rewinds qhead over the whole root trail anyway.
    ctx_.enqueue(cleaned[0], kInvalidClause);
    return true;
  }
  const ClauseRef ref = ctx_.db.add(cleaned, /*learned=*/false, /*glue=*/0);
  propagator_.attach(ref);
  return true;
}

void Solver::garbage_collect() {
  assert(state_ == EngineState::kAdding);
  garbage_collect_now();
}

void Solver::garbage_collect_now() {
  ctx_.db.garbage_collect();
  ctx_.remap_after_gc();
  propagator_.remap_watches(ctx_.db);
  ++ctx_.stats.garbage_collections;
  if (ctx_.listener != nullptr) ctx_.listener->on_garbage_collect();
}

StopReason Solver::stop_reason() const {
  const Statistics& s = ctx_.stats;
  // Refresh the cross-thread progress probe (monotone: ticks never shrink
  // within a load, and stop_reason is only called while solving).
  tick_watermark_.store(s.ticks, std::memory_order_relaxed);
  if (interrupted_.load(std::memory_order_relaxed)) {
    return StopReason::kInterrupted;
  }
  if ((options_.max_conflicts != 0 &&
       s.conflicts >= options_.max_conflicts) ||
      (budget_.conflicts != 0 &&
       s.conflicts - query_base_.conflicts >= budget_.conflicts)) {
    return StopReason::kConflictBudget;
  }
  if ((options_.max_propagations != 0 &&
       s.propagations >= options_.max_propagations) ||
      (budget_.propagations != 0 &&
       s.propagations - query_base_.propagations >= budget_.propagations)) {
    return StopReason::kPropagationBudget;
  }
  if (budget_.ticks != 0 && s.ticks - query_base_.ticks >= budget_.ticks) {
    return StopReason::kTickBudget;
  }
  return StopReason::kNone;
}

SolveOutcome Solver::finish_query(SolveOutcome out) {
  if (options_.materialize_results) out.core = failed_assumptions_;
  out.stats = ctx_.stats.delta_since(query_base_);
  // Between queries the probe is exact, so racers can settle tie-breaks
  // against the true per-query tick count.
  tick_watermark_.store(ctx_.stats.ticks, std::memory_order_relaxed);
  query_base_ = ctx_.stats;
  state_ = EngineState::kAdding;
  if (ctx_.listener != nullptr) {
    ctx_.listener->on_solve_end(ctx_.stats.queries, out.result, out.stats);
  }
  return out;
}

SolveOutcome Solver::solve_with_assumptions(
    std::span<const Lit> assumptions) {
  Trail& trail = ctx_.trail;
  Statistics& stats = ctx_.stats;

  SolveOutcome out;
  failed_assumptions_.clear();
  model_.clear();  // keeps capacity — no steady-state allocation
  state_ = EngineState::kSolving;
  ++stats.queries;
  backtrack(0);     // allow repeated incremental calls
  trail.qhead = 0;  // re-propagate root units against any newly learned
  // Re-arm the per-query trail watermark to the root height (a no-op on
  // the first query after load, which keeps single-shot stats identical).
  lifetime_max_trail_ = std::max(lifetime_max_trail_, stats.max_trail);
  stats.max_trail = trail.size();
  if (ctx_.listener != nullptr) {
    ctx_.listener->on_solve_begin(stats.queries, assumptions);
  }
  if (ctx_.inconsistent) {
    // Root-level contradiction found while loading: the empty clause is
    // derivable by unit propagation over the input alone.
    if (ctx_.proof != nullptr) ctx_.proof->on_add({});
    out.result = SatResult::kUnsat;
    return finish_query(std::move(out));
  }
  // Deferred garbage from a previous query's reductions may already sit
  // over the threshold; reclaim before searching again.
  if (options_.gc_frac > 0.0 && ctx_.db.check_garbage(options_.gc_frac)) {
    garbage_collect_now();
  }

  std::vector<Lit> learned;
  while (true) {
    const ClauseRef conflict = propagator_.propagate();
    if (conflict != kInvalidClause) {
      ++stats.conflicts;
      if (trail.decision_level() == 0) {
        if (ctx_.proof != nullptr) ctx_.proof->on_add({});
        out.result = SatResult::kUnsat;
        break;
      }
      const std::uint32_t conflict_level = trail.decision_level();
      std::uint32_t backjump_level = 0;
      std::uint32_t glue = 0;
      analyzer_.analyze(decider_, conflict, learned, backjump_level, glue);
      if (ctx_.proof != nullptr) {
        ctx_.proof->on_add(std::span<const Lit>(learned.data(),
                                                learned.size()));
      }
      backtrack(backjump_level);

      if (learned.size() == 1) {
        ctx_.enqueue(learned[0], kInvalidClause);
      } else {
        const ClauseRef ref = ctx_.db.add(learned, /*learned=*/true, glue);
        ctx_.learned.push_back(ref);
        propagator_.attach(ref);
        ctx_.db.view(ref).set_used(true);
        ctx_.enqueue(learned[0], ref);
      }
      ++stats.learned_clauses;
      stats.learned_literals += learned.size();

      decider_.decay();

      // Restart bookkeeping (Glucose EMAs over learned-clause glue).
      restarts_.on_conflict(glue);
      if (ctx_.listener != nullptr) {
        ctx_.listener->on_conflict(
            stats.conflicts, conflict_level,
            std::span<const Lit>(learned.data(), learned.size()), glue);
      }

      if (reducer_.should_reduce()) {
        reducer_.reduce(propagator_);
        // Deferred mode: reduce only detached + marked; compact once the
        // dead fraction crosses the threshold.
        if (options_.gc_frac > 0.0 &&
            ctx_.db.check_garbage(options_.gc_frac)) {
          garbage_collect_now();
        }
      }

      if (const StopReason why = stop_reason(); why != StopReason::kNone) {
        out.result = SatResult::kUnknown;
        out.why = why;
        break;
      }
    } else {
      // Assert pending assumptions first (each on its own decision level).
      Lit next = Lit::undef();
      bool next_is_assumption = false;
      bool assumption_failure = false;
      while (trail.decision_level() < assumptions.size()) {
        const Lit a = assumptions[trail.decision_level()];
        const LBool v = ctx_.value(a);
        if (v == LBool::kTrue) {
          trail.push_level();  // dummy level, already true
          trail.assumption_levels = trail.decision_level();
        } else if (v == LBool::kFalse) {
          analyzer_.analyze_final(a, failed_assumptions_);
          out.result = SatResult::kUnsat;
          assumption_failure = true;
          break;
        } else {
          next = a;
          next_is_assumption = true;
          break;
        }
      }
      if (assumption_failure) break;

      if (!next.is_defined()) {
        if (trail.size() == ctx_.num_vars) {
          out.result = SatResult::kSat;
          extract_model();
          if (options_.materialize_results) out.model = model_;
          break;
        }
        if (const StopReason why = stop_reason();
            why != StopReason::kNone) {
          out.result = SatResult::kUnknown;
          out.why = why;
          break;
        }
        if (restarts_.should_restart()) {
          ++stats.restarts;
          // Unwind to the assumption prefix, not level 0: assumption
          // assignments survive restarts within a query (with no
          // assumptions this is the classic restart-to-root).
          backtrack(trail.assumption_levels);
          restarts_.on_restart();
          if (ctx_.listener != nullptr) {
            ctx_.listener->on_restart(stats.restarts, stats.conflicts);
          }
          continue;
        }
        next = decider_.pick();
      }
      ++stats.decisions;
      trail.push_level();
      if (next_is_assumption) {
        trail.assumption_levels = trail.decision_level();
      }
      ctx_.enqueue(next, kInvalidClause);
    }
  }

  // Close the open Eq. 2 window; whole-run histograms live in listeners.
  std::fill(ctx_.freq.begin(), ctx_.freq.end(), 0);
  return finish_query(std::move(out));
}

SolveOutcome solve_formula(const CnfFormula& formula,
                           const SolverOptions& options) {
  return solve_formula(formula, options, nullptr);
}

SolveOutcome solve_formula(const CnfFormula& formula,
                           const SolverOptions& options,
                           EngineListener* listener) {
  Solver s(options);
  s.set_listener(listener);  // before load: root units also emit events
  s.load(formula);
  return s.solve();
}

}  // namespace ns::solver
