#pragma once
/// \file solver_audit.hpp
/// Invariant auditors for the CDCL engine's subsystems. Each checker takes
/// the subsystem's public (or audit-view) state, re-derives the invariants
/// the search loop relies on, and returns every violation found — empty
/// means verified. See DESIGN.md section 11 for the full invariant catalog.
///
/// Rule identifiers (Violation::rule):
///   trail.qhead        propagation cursor past the trail end
///   trail.frames       decision-level frame offsets not monotone / in range
///   trail.value        a trail literal does not evaluate true
///   trail.level        a variable's stored level disagrees with its frame
///   trail.dup          assigned variable missing from the trail, or twice
///   trail.pair         a variable's two literal values neither both undefined
///                      nor one true and one false
///   trail.decision     a level's first assignment carries a reason
///   trail.reason       reason clause dead / missing the implied literal /
///                      other literals not false at \<= the implied level
///   watch.accounting   sum(block caps) + dead != slab entries
///   watch.block        block out of slab range / blocks overlap
///   watch.ref          watch entry names a dead or non-clause reference
///   watch.twice        clause not watched exactly once on each of its
///                      first two literals (or watched elsewhere)
///   watch.binary_tag   binary tag disagrees with clause size == 2
///   watch.blocker      blocker not another literal of the clause
///   db.walk            arena stride walk breaks (size/extent corruption)
///   db.counts          live/learned clause counts disagree with headers
///   db.garbage         garbage-word accounting out of balance
///   db.learned_refs    ctx.learned disagrees with live learned clauses
///   gc.forwarding      relocation entry dangles (not a live clause start in
///                      the compacted arena) or the mapping is not monotone
///   gc.live_count      number of forwarded (live) refs != live clause count
///   decider.heap       EVSIDS heap property or position index broken
///   decider.heap_member  unassigned variable missing from the heap
///   decider.vmtf_links   VMTF prev/next chain broken or incomplete
///   decider.vmtf_stamps  stamps not strictly decreasing front to back
///   decider.vmtf_search  search pointer below an unassigned variable
///   engine.learned     freshly learned clause not asserting after backjump
///
/// The engine never calls a checker itself. `RuntimeAuditor` below is the
/// one auditor: attached as an engine listener (`neuroselect_solve
/// --audit`, the trajectory and incremental suites) it runs the checks at
/// the events it observes; tests also call the checkers directly.

#include <cstddef>
#include <span>
#include <vector>

#include "audit/audit.hpp"
#include "solver/context.hpp"
#include "solver/decide.hpp"
#include "solver/hooks.hpp"
#include "solver/propagate.hpp"

namespace ns::audit {

/// Trail structure: frames, values, levels, uniqueness, reasons.
std::vector<Violation> check_trail(const solver::SearchContext& ctx);

/// Clause arena: stride walk, header counts, garbage accounting, and the
/// ctx.learned list against the live learned clauses.
std::vector<Violation> check_clause_db(const solver::SearchContext& ctx);

/// Relocation map of the last ClauseDb::garbage_collect(): every forwarded
/// reference must land on a live clause start in the compacted arena, the
/// old-to-new mapping must be strictly monotone (arena order is preserved,
/// so ref-based tie-breaks order identically across a collection), and the
/// number of forwarded refs must equal the live clause count. Run at the
/// GC boundary (RuntimeAuditor::on_garbage_collect) before any new clause
/// is added.
std::vector<Violation> check_gc_forwarding(const solver::ClauseDb& db);

/// Watcher arena: block accounting and the two-watched-literal scheme
/// (every live clause of size >= 2 watched exactly once on each of its
/// first two literals, binary tags matching clause size, blockers sane).
std::vector<Violation> check_watches(const solver::SearchContext& ctx,
                                     const solver::Propagator& prop);

/// Decision heuristic: EVSIDS heap property + membership, or VMTF chain
/// consistency + stamp ordering, per the context's decision mode.
std::vector<Violation> check_decider(const solver::SearchContext& ctx,
                                     const solver::Decider::AuditView& dv);

/// All of the above (the auditor's whole-engine check).
std::vector<Violation> check_engine(const solver::SearchContext& ctx,
                                    const solver::Propagator& prop,
                                    const solver::Decider::AuditView& dv);

/// `enforce(check_engine(...), where)`.
void check_engine_or_throw(const solver::SearchContext& ctx,
                           const solver::Propagator& prop,
                           const solver::Decider::AuditView& dv,
                           const char* where);

/// The clause starts of an arena, the membership test behind every
/// reference check. Between collections the arena only grows, so `extend`
/// walks just the clauses appended since its last call. A collection moves
/// clauses, so the owner calls `clear` after one; an arena that shrank (a
/// reload) clears the index by itself.
class ArenaIndex {
 public:
  void clear() {
    start_.clear();
    walked_ = 0;
  }

  /// Indexes the clauses appended since the last call. A header whose size
  /// or extent breaks the stride is a `db.walk` violation: the call returns
  /// false, and the next one resumes at that header and reports it again.
  bool extend(const solver::ClauseDb& db, std::vector<Violation>& out);

  bool contains(solver::ClauseRef ref) const {
    return ref < walked_ && start_[ref];
  }

 private:
  std::vector<bool> start_;  ///< start_[w]: a clause header begins at word w
  std::size_t walked_ = 0;   ///< arena words indexed so far
};

/// Incremental check: one just-recorded assignment (trail value and its
/// reason clause). Safe mid-propagation — besides the assignment's own
/// state it reads only the clauses `arena` has not indexed yet, so its
/// amortized cost is the size of the reason clause.
std::vector<Violation> check_assignment(const solver::SearchContext& ctx,
                                        Lit l, ArenaIndex& arena);

/// Incremental check: a freshly learned clause as attached after the
/// backjump — asserting literal true, every other literal false.
std::vector<Violation> check_learned_clause(const solver::SearchContext& ctx,
                                            std::span<const Lit> learned);

/// The engine auditor. Attach it with `Solver::set_listener` (chained with
/// other listeners if needed) and it checks, as the search runs:
///   every assignment       check_assignment
///   every learned clause   check_learned_clause
///   every 64th conflict    check_trail
///   every collection       check_gc_forwarding, then the whole engine
///   solve begin, restart, reduce and solve end   the whole engine
/// Observes only, so the search path is the same with it attached; throws
/// AuditError at the first event that finds a violation.
class RuntimeAuditor final : public solver::EngineListener {
 public:
  RuntimeAuditor(const solver::SearchContext& ctx,
                 const solver::Propagator& prop, const solver::Decider& decider)
      : ctx_(ctx), prop_(prop), decider_(decider) {}

  void on_assignment(Lit l, std::uint32_t level, bool propagated) override;
  void on_conflict(std::uint64_t conflicts, std::uint32_t conflict_level,
                   std::span<const Lit> learned, std::uint32_t glue) override;
  void on_restart(std::uint64_t restarts, std::uint64_t conflicts) override;
  void on_reduce(std::uint64_t reductions, std::size_t deleted,
                 std::size_t live_learned) override;
  void on_garbage_collect() override;
  void on_solve_begin(std::uint64_t query,
                      std::span<const Lit> assumptions) override;
  void on_solve_end(std::uint64_t query, solver::SatResult result,
                    const solver::Statistics& query_stats) override;

 private:
  void check_all(const char* where) const;

  const solver::SearchContext& ctx_;
  const solver::Propagator& prop_;
  const solver::Decider& decider_;
  ArenaIndex arena_;  ///< rebuilt at solve begin and at every collection
};

}  // namespace ns::audit
