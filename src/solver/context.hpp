#pragma once
/// \file context.hpp
/// The narrow shared state the search subsystems are wired through. Each
/// subsystem (Propagator, Analyzer, Decider, RestartScheduler,
/// ReduceScheduler) owns its private machinery and reaches everything
/// shared — options, clause arena, trail, counters, hooks — exclusively
/// via this context, so the data any two subsystems can possibly couple
/// over is spelled out in one place.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "solver/clause_db.hpp"
#include "solver/hooks.hpp"
#include "solver/options.hpp"
#include "solver/proof.hpp"
#include "solver/stats.hpp"
#include "solver/trail.hpp"

namespace ns::solver {

struct SearchContext {
  const SolverOptions* options = nullptr;  ///< bound once by the Solver
  ClauseDb db;
  Trail trail;
  Statistics stats;

  /// Live learned-clause references, in learning order (remapped after GC).
  std::vector<ClauseRef> learned;

  /// Per-variable propagation counters since the last reduction — the f_v
  /// window of paper Eq. 2. Incremented by enqueue, consumed by the reduce
  /// policy, zeroed by the ReduceScheduler.
  std::vector<std::uint64_t> freq;

  EngineListener* listener = nullptr;
  ProofTracer* proof = nullptr;

  std::size_t num_vars = 0;
  bool inconsistent = false;  ///< empty clause seen at load / level 0

  void reset(std::size_t n) {
    num_vars = n;
    inconsistent = false;
    db = ClauseDb{};
    trail.reset(n);
    stats = Statistics{};
    learned.clear();
    freq.assign(n, 0);
  }

  LBool value(Lit l) const { return trail.value(l); }

  /// Records the assignment making `l` true, with all bookkeeping: trail
  /// push, propagation/frequency counters, and the assignment hook.
  void enqueue(Lit l, ClauseRef reason) {
    const std::uint32_t lvl = trail.decision_level();
    trail.assign(l, reason);
    const bool propagated = reason != kInvalidClause || lvl == 0;
    if (propagated) {
      // Assignment produced by BCP (or a root-level unit): this variable
      // "triggered propagation" in the sense of paper Eq. 2.
      ++stats.propagations;
      ++freq[l.var()];
    }
    stats.max_trail = std::max<std::uint64_t>(stats.max_trail, trail.size());
    if (listener != nullptr) listener->on_assignment(l, lvl, propagated);
  }

  /// After ClauseDb::garbage_collect(): rewrites every ClauseRef the
  /// context holds outside the arena — reason references on the trail and
  /// the learned list — through the forwarding table. Reasons of current
  /// assignments are never garbage (reduce skips them), so their forwards
  /// must exist; learned entries that died are dropped, order preserved.
  /// Watch lists are the Propagator's to fix (rebuild or remap_watches).
  void remap_after_gc() {
    for (std::size_t i = 0; i < trail.size(); ++i) {
      const Var v = trail[i].var();
      const ClauseRef r = trail.reason(v);
      if (r != kInvalidClause) {
        const ClauseRef fwd = db.forward(r);
        assert(fwd != kInvalidClause);
        trail.set_reason(v, fwd);
      }
    }
    std::vector<ClauseRef> live;
    live.reserve(learned.size());
    for (ClauseRef ref : learned) {
      const ClauseRef fwd = db.forward(ref);
      if (fwd != kInvalidClause) live.push_back(fwd);
    }
    learned = std::move(live);
  }
};

}  // namespace ns::solver
