#pragma once
/// \file hooks.hpp
/// Engine event hooks: a narrow observer interface the search loop reports
/// through, so instrumentation (per-variable propagation histograms,
/// progress printers, future learned-guidance experiments) lives outside
/// the solver instead of poking at its internals.
///
/// Cost model: the solver holds one `EngineListener*`, null by default.
/// Every emission site is a single predictable null check, so an engine
/// without a listener pays nothing measurable; the virtual dispatch only
/// exists on the instrumented path.

#include <cstdint>
#include <span>
#include <vector>

#include "cnf/types.hpp"
#include "solver/clause_db.hpp"
#include "solver/stats.hpp"

namespace ns::solver {

/// Observer of search events. Default implementations are no-ops, so
/// listeners override only what they consume. Handlers must not mutate the
/// solver; they see the event after the engine has fully applied it.
class EngineListener {
 public:
  virtual ~EngineListener() = default;

  /// A variable was assigned (decision, BCP, or root unit).
  /// `propagated` is true when the assignment was produced by unit
  /// propagation or a root-level unit — the predicate behind the f_v
  /// counters of paper Eq. 2.
  virtual void on_assignment(Lit l, std::uint32_t level, bool propagated) {
    (void)l;
    (void)level;
    (void)propagated;
  }

  /// A conflict was analyzed; `learned` is the 1-UIP clause about to be
  /// attached (still valid only for the duration of the call).
  virtual void on_conflict(std::uint64_t conflicts,
                           std::uint32_t conflict_level,
                           std::span<const Lit> learned, std::uint32_t glue) {
    (void)conflicts;
    (void)conflict_level;
    (void)learned;
    (void)glue;
  }

  /// The engine restarted (trail unwound to the assumption prefix).
  virtual void on_restart(std::uint64_t restarts, std::uint64_t conflicts) {
    (void)restarts;
    (void)conflicts;
  }

  /// A clause-DB reduction completed.
  virtual void on_reduce(std::uint64_t reductions, std::size_t deleted,
                         std::size_t live_learned) {
    (void)reductions;
    (void)deleted;
    (void)live_learned;
  }

  /// The clause arena was compacted and every reference into it (reasons,
  /// learned list, watches) remapped; `ClauseDb::forwarding_table()` holds
  /// the relocation. Fired after both compaction sites: the eager one
  /// inside each reduce (`gc_frac == 0`, before that reduce's `on_reduce`)
  /// and the deferred or forced one that `Statistics::garbage_collections`
  /// counts.
  virtual void on_garbage_collect() {}

  /// A solve() query is starting. `query` is the 1-based query ordinal
  /// within the current load; `assumptions` is the assumption set (valid
  /// only for the duration of the call). Fired after the engine has
  /// backtracked to root, before any propagation of the query.
  virtual void on_solve_begin(std::uint64_t query,
                              std::span<const Lit> assumptions) {
    (void)query;
    (void)assumptions;
  }

  /// A solve() query finished. `query_stats` is the per-query delta (see
  /// Statistics::delta_since); lifetime totals remain readable through
  /// `Solver::stats()`. Fired on every exit path, budget exhaustion and
  /// interrupts included.
  virtual void on_solve_end(std::uint64_t query, SatResult result,
                            const Statistics& query_stats) {
    (void)query;
    (void)result;
    (void)query_stats;
  }
};

/// Accumulates the whole-run per-variable propagation histogram (the data
/// behind paper Fig. 3) from assignment events. Replaces the cumulative
/// counter array the solver itself used to carry.
class PropagationHistogram final : public EngineListener {
 public:
  explicit PropagationHistogram(std::size_t num_vars) : counts_(num_vars, 0) {}

  void on_assignment(Lit l, std::uint32_t level, bool propagated) override {
    (void)level;
    if (propagated) ++counts_[l.var()];
  }

  const std::vector<std::uint64_t>& counts() const { return counts_; }

 private:
  std::vector<std::uint64_t> counts_;
};

/// Fans one event stream out to several listeners (benches often want a
/// histogram and a progress printer at once).
class ListenerChain final : public EngineListener {
 public:
  void add(EngineListener* l) { chain_.push_back(l); }

  void on_assignment(Lit l, std::uint32_t level, bool propagated) override {
    // NS_SUPPRESS(virtual-dispatch): fan-out is the chain's documented
    // contract; the chain is fixed at attach time and holds at most a
    // handful of listeners, so the indirect calls are bounded per event.
    for (EngineListener* e : chain_) e->on_assignment(l, level, propagated);
  }
  void on_conflict(std::uint64_t conflicts, std::uint32_t conflict_level,
                   std::span<const Lit> learned, std::uint32_t glue) override {
    for (EngineListener* e : chain_) {
      e->on_conflict(conflicts, conflict_level, learned, glue);
    }
  }
  void on_restart(std::uint64_t restarts, std::uint64_t conflicts) override {
    for (EngineListener* e : chain_) e->on_restart(restarts, conflicts);
  }
  void on_reduce(std::uint64_t reductions, std::size_t deleted,
                 std::size_t live_learned) override {
    for (EngineListener* e : chain_) {
      e->on_reduce(reductions, deleted, live_learned);
    }
  }
  void on_garbage_collect() override {
    for (EngineListener* e : chain_) e->on_garbage_collect();
  }
  void on_solve_begin(std::uint64_t query,
                      std::span<const Lit> assumptions) override {
    for (EngineListener* e : chain_) e->on_solve_begin(query, assumptions);
  }
  void on_solve_end(std::uint64_t query, SatResult result,
                    const Statistics& query_stats) override {
    for (EngineListener* e : chain_) {
      e->on_solve_end(query, result, query_stats);
    }
  }

 private:
  std::vector<EngineListener*> chain_;
};

}  // namespace ns::solver
