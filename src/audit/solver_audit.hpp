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
/// All checkers are compiled unconditionally — release binaries can run
/// them on demand (`neuroselect_solve --audit`); the NS_CHECK gating only
/// decides whether the *engine* calls them.

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
/// GC boundary (NS_CHECK >= 1) before any new clause is added.
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

/// All of the above (the level-1 subsystem-boundary audit).
std::vector<Violation> check_engine(const solver::SearchContext& ctx,
                                    const solver::Propagator& prop,
                                    const solver::Decider::AuditView& dv);

/// `enforce(check_engine(...), where)`.
void check_engine_or_throw(const solver::SearchContext& ctx,
                           const solver::Propagator& prop,
                           const solver::Decider::AuditView& dv,
                           const char* where);

/// Level-2 incremental check: one just-recorded assignment (trail value and
/// its reason clause). Safe mid-propagation — it reads nothing but the
/// assignment's own state.
std::vector<Violation> check_assignment(const solver::SearchContext& ctx,
                                        Lit l);

/// Level-2 incremental check: a freshly learned clause as attached after
/// the backjump — asserting literal true, every other literal false.
std::vector<Violation> check_learned_clause(const solver::SearchContext& ctx,
                                            std::span<const Lit> learned);

/// The NS_CHECK=2 in-search auditor, attached by the Solver itself via its
/// listener chain: audits every assignment inside propagate() and every
/// learned clause inside the conflict path. Observes only; throws
/// AuditError on the first violation.
class EngineAuditListener final : public solver::EngineListener {
 public:
  explicit EngineAuditListener(const solver::SearchContext& ctx) : ctx_(ctx) {}

  void on_assignment(Lit l, std::uint32_t level, bool propagated) override {
    (void)level;
    (void)propagated;
    // NS_SUPPRESS(allocation, throw, blocking): NS_CHECK>=2 auditing only —
    // this listener is never attached on the production hot path, and its
    // diagnostics allocate and throw by design.
    enforce(check_assignment(ctx_, l), "audit::on_assignment");
  }
  void on_conflict(std::uint64_t conflicts, std::uint32_t conflict_level,
                   std::span<const Lit> learned, std::uint32_t glue) override {
    (void)conflicts;
    (void)conflict_level;
    (void)glue;
    enforce(check_learned_clause(ctx_, learned), "audit::on_conflict");
  }

 private:
  const solver::SearchContext& ctx_;
};

/// Level-1 audits on a release binary (`neuroselect_solve --audit`):
/// trail audit every 64 conflicts, full engine audit on every restart and
/// reduction, regardless of NS_CHECK. Observes only; throws AuditError.
class RuntimeAuditor final : public solver::EngineListener {
 public:
  RuntimeAuditor(const solver::SearchContext& ctx,
                 const solver::Propagator& prop, const solver::Decider& decider)
      : ctx_(ctx), prop_(prop), decider_(decider) {}

  void on_conflict(std::uint64_t conflicts, std::uint32_t conflict_level,
                   std::span<const Lit> learned, std::uint32_t glue) override {
    (void)conflict_level;
    (void)glue;
    enforce(check_learned_clause(ctx_, learned), "audit::runtime(conflict)");
    if (conflicts % 64 == 0) {
      enforce(check_trail(ctx_), "audit::runtime(trail)");
    }
  }
  void on_restart(std::uint64_t restarts, std::uint64_t conflicts) override {
    (void)restarts;
    (void)conflicts;
    check_engine_or_throw(ctx_, prop_, decider_.audit_view(),
                          "audit::runtime(restart)");
  }
  void on_reduce(std::uint64_t reductions, std::size_t deleted,
                 std::size_t live_learned) override {
    (void)reductions;
    (void)deleted;
    (void)live_learned;
    check_engine_or_throw(ctx_, prop_, decider_.audit_view(),
                          "audit::runtime(reduce)");
  }

 private:
  const solver::SearchContext& ctx_;
  const solver::Propagator& prop_;
  const solver::Decider& decider_;
};

}  // namespace ns::audit
