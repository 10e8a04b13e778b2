#include "audit/solver_audit.hpp"

#include <algorithm>
#include <cstddef>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "solver/clause_db.hpp"
#include "solver/heap.hpp"
#include "solver/trail.hpp"
#include "solver/watch.hpp"

namespace ns::audit {
namespace {

using solver::ClauseDb;
using solver::ClauseRef;
using solver::ConstClauseView;
using solver::DecisionMode;
using solver::kInvalidClause;
using solver::SearchContext;
using solver::Trail;
using solver::VarHeap;
using solver::Watch;
using solver::WatcherArena;

void add(std::vector<Violation>& out, const char* rule, std::int64_t idx,
         std::string message) {
  out.push_back(Violation{rule, std::move(message), idx});
}

std::string lit_str(Lit l) { return l.to_string(); }

const char* lbool_str(LBool b) {
  switch (b) {
    case LBool::kTrue:
      return "true";
    case LBool::kFalse:
      return "false";
    default:
      return "undef";
  }
}

/// Shared by check_trail (every reason) and check_assignment (one reason):
/// the reason clause of `l` must be a live clause containing `l` (at index
/// 0 for clauses longer than binary — BCP and learning normalize it there)
/// with every other literal false at a level <= l's level.
void check_reason_of(const SearchContext& ctx, const ArenaIndex& idx, Lit l,
                     std::vector<Violation>& out) {
  const Var v = l.var();
  const ClauseRef r = ctx.trail.reason(v);
  if (r == kInvalidClause) return;
  if (!idx.contains(r)) {
    add(out, "trail.reason", static_cast<std::int64_t>(v),
        "reason of " + lit_str(l) + " (ref " + std::to_string(r) +
            ") is not a clause in the arena");
    return;
  }
  const ConstClauseView c = ctx.db.view(r);
  if (c.garbage()) {
    add(out, "trail.reason", static_cast<std::int64_t>(v),
        "reason of " + lit_str(l) + " (ref " + std::to_string(r) +
            ") is a garbage clause");
    return;
  }
  bool found = false;
  for (std::uint32_t i = 0; i < c.size(); ++i) {
    const Lit cl = c.lit(i);
    if (cl == l) {
      found = true;
      if (c.size() > 2 && i != 0) {
        add(out, "trail.reason", static_cast<std::int64_t>(v),
            "reason of " + lit_str(l) +
                " holds the implied literal at index " + std::to_string(i) +
                "; propagation normalizes it to index 0");
      }
      continue;
    }
    if (!cl.is_defined() || cl.var() >= ctx.num_vars) {
      add(out, "trail.reason", static_cast<std::int64_t>(v),
          "reason of " + lit_str(l) + ": literal slot " + std::to_string(i) +
              " holds an out-of-range literal code");
      continue;
    }
    if (ctx.trail.value(cl) != LBool::kFalse) {
      add(out, "trail.reason", static_cast<std::int64_t>(v),
          "reason of " + lit_str(l) + ": literal " + lit_str(cl) +
              " is not false, so the clause never forced the assignment");
    } else if (ctx.trail.level(cl.var()) > ctx.trail.level(v)) {
      add(out, "trail.reason", static_cast<std::int64_t>(v),
          "reason of " + lit_str(l) + ": literal " + lit_str(cl) +
              " was falsified at level " +
              std::to_string(ctx.trail.level(cl.var())) +
              ", above the implied level " +
              std::to_string(ctx.trail.level(v)));
    }
  }
  if (!found) {
    add(out, "trail.reason", static_cast<std::int64_t>(v),
        "reason of " + lit_str(l) + " (ref " + std::to_string(r) +
            ") does not contain the implied literal");
  }
}

}  // namespace

bool ArenaIndex::extend(const ClauseDb& db, std::vector<Violation>& out) {
  // Stride manually instead of via for_each_all: a corrupted size/extent
  // must become a db.walk violation, not an out-of-range read.
  const std::size_t end = db.arena_words();
  if (end < walked_) clear();  // the engine reloaded: a new arena
  start_.resize(end);
  while (walked_ < end) {
    const std::size_t off = walked_;
    if (off + ClauseDb::kHeaderWords > end) {
      add(out, "db.walk", static_cast<std::int64_t>(off),
          "clause header at arena offset " + std::to_string(off) +
              " runs past the arena end (" + std::to_string(end) + " words)");
      return false;
    }
    const ConstClauseView c = db.view(static_cast<ClauseRef>(off));
    if (c.size() > c.extent()) {
      add(out, "db.walk", static_cast<std::int64_t>(off),
          "clause at offset " + std::to_string(off) + " has size " +
              std::to_string(c.size()) + " > extent " +
              std::to_string(c.extent()));
      return false;
    }
    if (off + ClauseDb::kHeaderWords + c.extent() > end) {
      add(out, "db.walk", static_cast<std::int64_t>(off),
          "clause at offset " + std::to_string(off) + " (extent " +
              std::to_string(c.extent()) + ") runs past the arena end");
      return false;
    }
    start_[off] = true;
    walked_ = off + ClauseDb::kHeaderWords + c.extent();
  }
  return true;
}

std::vector<Violation> check_trail(const SearchContext& ctx) {
  std::vector<Violation> out;
  const Trail& trail = ctx.trail;

  if (trail.qhead > trail.size()) {
    add(out, "trail.qhead", static_cast<std::int64_t>(trail.qhead),
        "propagation cursor " + std::to_string(trail.qhead) +
            " is past the trail end " + std::to_string(trail.size()));
  }

  // Decision-level frames: monotone offsets inside the trail.
  const std::uint32_t levels = trail.decision_level();
  std::size_t prev = 0;
  bool frames_ok = true;
  for (std::uint32_t lvl = 0; lvl < levels; ++lvl) {
    const std::size_t begin = trail.level_begin(lvl);
    if (begin < prev || begin > trail.size()) {
      add(out, "trail.frames", lvl,
          "frame of level " + std::to_string(lvl + 1) + " starts at " +
              std::to_string(begin) + ", outside [" + std::to_string(prev) +
              ", " + std::to_string(trail.size()) + "]");
      frames_ok = false;
      break;
    }
    prev = begin;
  }

  ArenaIndex idx;
  const bool arena_ok = idx.extend(ctx.db, out);

  // Walk the trail once: values, per-variable levels against the frame the
  // index falls in, uniqueness, reasons, and decision markers.
  std::vector<std::uint8_t> on_trail(ctx.num_vars, 0);
  std::uint32_t lvl = 0;  // level of the current index
  for (std::size_t i = 0; i < trail.size(); ++i) {
    if (frames_ok) {
      while (lvl < levels && trail.level_begin(lvl) == i) ++lvl;
    }
    const Lit l = trail[i];
    const Var v = l.var();
    if (!l.is_defined() || v >= ctx.num_vars) {
      add(out, "trail.value", static_cast<std::int64_t>(i),
          "trail slot " + std::to_string(i) + " holds an invalid literal");
      continue;
    }
    if (on_trail[v]) {
      add(out, "trail.dup", static_cast<std::int64_t>(i),
          "variable x" + std::to_string(v) + " appears twice on the trail");
      continue;
    }
    on_trail[v] = 1;
    if (trail.value(l) != LBool::kTrue) {
      add(out, "trail.value", static_cast<std::int64_t>(i),
          "trail literal " + lit_str(l) + " at index " + std::to_string(i) +
              " does not evaluate true");
    }
    if (frames_ok && trail.level(v) != lvl) {
      add(out, "trail.level", static_cast<std::int64_t>(i),
          lit_str(l) + " at trail index " + std::to_string(i) +
              " is stored at level " + std::to_string(trail.level(v)) +
              " but sits in the frame of level " + std::to_string(lvl));
    }
    if (frames_ok && lvl > 0 && i == trail.level_begin(lvl - 1) &&
        trail.reason(v) != kInvalidClause) {
      add(out, "trail.decision", static_cast<std::int64_t>(i),
          lit_str(l) + " opens level " + std::to_string(lvl) +
              " but carries reason ref " + std::to_string(trail.reason(v)) +
              " — decisions have none");
    }
    if (arena_ok) check_reason_of(ctx, idx, l, out);
  }

  // Values are stored per literal code, so each variable owns two slots:
  // both undefined, or one true and one false. Either slot being defined
  // counts as assigned.
  for (Var v = 0; v < ctx.num_vars; ++v) {
    const LBool pos = trail.value(Lit(v, false));
    const LBool neg = trail.value(Lit(v, true));
    if (neg != negate(pos)) {  // negate(kUndef) == kUndef
      add(out, "trail.pair", static_cast<std::int64_t>(v),
          "variable x" + std::to_string(v) + " has literal values x" +
              std::to_string(v) + "=" + lbool_str(pos) + ", ~x" +
              std::to_string(v) + "=" + lbool_str(neg) +
              "; they must be both undefined or opposite");
    }
    if ((pos != LBool::kUndef || neg != LBool::kUndef) && !on_trail[v]) {
      add(out, "trail.dup", static_cast<std::int64_t>(v),
          "variable x" + std::to_string(v) +
              " is assigned but absent from the trail");
    }
  }
  return out;
}

std::vector<Violation> check_clause_db(const SearchContext& ctx) {
  std::vector<Violation> out;
  const ClauseDb& db = ctx.db;
  if (!ArenaIndex().extend(db, out)) return out;

  std::size_t live = 0, live_learned = 0, garbage_words = 0;
  std::unordered_set<ClauseRef> live_learned_refs;
  db.for_each_all([&](ClauseRef ref, ConstClauseView c) {
    garbage_words += c.extent() - c.size();
    if (c.garbage()) {
      garbage_words += ClauseDb::kHeaderWords + c.size();
      return;
    }
    ++live;
    if (c.learned()) {
      ++live_learned;
      live_learned_refs.insert(ref);
    }
  });

  if (live != db.num_clauses() || live_learned != db.num_learned()) {
    add(out, "db.counts", -1,
        "arena holds " + std::to_string(live) + " live clauses (" +
            std::to_string(live_learned) + " learned) but the counters say " +
            std::to_string(db.num_clauses()) + " (" +
            std::to_string(db.num_learned()) + " learned)");
  }
  if (garbage_words != db.garbage_words()) {
    add(out, "db.garbage", -1,
        "dead words recomputed from headers: " +
            std::to_string(garbage_words) + ", accounted: " +
            std::to_string(db.garbage_words()));
  }

  // ctx.learned must be exactly the live learned clauses, no duplicates.
  std::unordered_set<ClauseRef> listed;
  for (std::size_t i = 0; i < ctx.learned.size(); ++i) {
    const ClauseRef ref = ctx.learned[i];
    if (!listed.insert(ref).second) {
      add(out, "db.learned_refs", static_cast<std::int64_t>(i),
          "learned list entry " + std::to_string(i) + " (ref " +
              std::to_string(ref) + ") is a duplicate");
      continue;
    }
    if (live_learned_refs.count(ref) == 0) {
      add(out, "db.learned_refs", static_cast<std::int64_t>(i),
          "learned list entry " + std::to_string(i) + " (ref " +
              std::to_string(ref) +
              ") is not a live learned clause in the arena");
    }
  }
  for (ClauseRef ref : live_learned_refs) {
    if (listed.count(ref) == 0) {
      add(out, "db.learned_refs", static_cast<std::int64_t>(ref),
          "live learned clause at ref " + std::to_string(ref) +
              " is missing from the learned list");
    }
  }
  return out;
}

std::vector<Violation> check_gc_forwarding(const ClauseDb& db) {
  std::vector<Violation> out;
  if (!db.has_forwarding()) {
    add(out, "gc.forwarding", -1,
        "no collection has run — the forwarding table is empty");
    return out;
  }
  ArenaIndex idx;
  if (!idx.extend(db, out)) return out;

  const std::vector<ClauseRef>& fwd = db.forwarding_table();
  std::size_t live = 0;
  ClauseRef prev = 0;
  bool have_prev = false;
  for (std::size_t old_ref = 0; old_ref < fwd.size(); ++old_ref) {
    const ClauseRef new_ref = fwd[old_ref];
    if (new_ref == kInvalidClause) continue;
    ++live;
    if (!idx.contains(new_ref)) {
      add(out, "gc.forwarding", static_cast<std::int64_t>(old_ref),
          "old ref " + std::to_string(old_ref) + " forwards to " +
              std::to_string(new_ref) +
              ", which is not a clause start in the compacted arena");
      continue;
    }
    if (db.view(new_ref).garbage()) {
      add(out, "gc.forwarding", static_cast<std::int64_t>(old_ref),
          "old ref " + std::to_string(old_ref) + " forwards to " +
              std::to_string(new_ref) + ", a garbage clause — collection "
              "must drop garbage, not relocate it");
      continue;
    }
    if (have_prev && new_ref <= prev) {
      add(out, "gc.forwarding", static_cast<std::int64_t>(old_ref),
          "relocation is not monotone: old ref " + std::to_string(old_ref) +
              " forwards to " + std::to_string(new_ref) +
              ", not above the previous forward " + std::to_string(prev) +
              " — ref-based tie-breaks would reorder across the collection");
    }
    prev = new_ref;
    have_prev = true;
  }
  if (live != db.num_clauses()) {
    add(out, "gc.live_count", static_cast<std::int64_t>(live),
        "forwarding table keeps " + std::to_string(live) +
            " refs alive but the arena holds " +
            std::to_string(db.num_clauses()) + " live clauses");
  }
  return out;
}

std::vector<Violation> check_watches(const SearchContext& ctx,
                                     const solver::Propagator& prop) {
  std::vector<Violation> out;
  const WatcherArena& w = prop.watches();

  // Block accounting: every list's block inside the slab, pairwise
  // disjoint, and sum(cap) + dead == slab size.
  std::size_t cap_sum = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> blocks;
  blocks.reserve(w.num_lists());
  for (std::uint32_t code = 0; code < w.num_lists(); ++code) {
    const std::uint64_t begin = w.block_begin(code);
    const std::uint64_t cap = w.block_cap(code);
    if (w.size(code) > cap || begin + cap > w.slab_entries()) {
      add(out, "watch.block", code,
          "watch block of " + lit_str(Lit::from_code(code)) + " ([" +
              std::to_string(begin) + ", " + std::to_string(begin + cap) +
              "), size " + std::to_string(w.size(code)) +
              ") exceeds its capacity or the slab");
      return out;
    }
    cap_sum += cap;
    if (cap > 0) blocks.emplace_back(begin, begin + cap);
  }
  if (cap_sum + w.dead_entries() != w.slab_entries()) {
    add(out, "watch.accounting", -1,
        "block capacities (" + std::to_string(cap_sum) + ") + dead holes (" +
            std::to_string(w.dead_entries()) + ") != slab entries (" +
            std::to_string(w.slab_entries()) + ")");
  }
  std::sort(blocks.begin(), blocks.end());
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    if (blocks[i].first < blocks[i - 1].second) {
      add(out, "watch.block", static_cast<std::int64_t>(blocks[i].first),
          "watch blocks overlap at slab offset " +
              std::to_string(blocks[i].first));
      return out;
    }
  }

  ArenaIndex idx;
  if (!idx.extend(ctx.db, out)) return out;

  // Every entry: valid live ref, binary tag == (size == 2), blocker a
  // different literal of the clause. Collect occurrences per clause.
  std::unordered_map<ClauseRef, std::vector<std::uint32_t>> where;
  for (std::uint32_t code = 0; code < w.num_lists(); ++code) {
    for (std::uint32_t i = 0; i < w.size(code); ++i) {
      const Watch entry = w.get(code, i);
      const ClauseRef ref = entry.ref();
      if (!idx.contains(ref)) {
        add(out, "watch.ref", code,
            "watch list of " + lit_str(Lit::from_code(code)) +
                " names ref " + std::to_string(ref) +
                ", which is not a clause in the arena");
        continue;
      }
      const ConstClauseView c = ctx.db.view(ref);
      if (c.garbage()) {
        add(out, "watch.ref", code,
            "watch list of " + lit_str(Lit::from_code(code)) +
                " still references garbage clause at ref " +
                std::to_string(ref));
        continue;
      }
      if (entry.binary() != (c.size() == 2)) {
        add(out, "watch.binary_tag", code,
            "clause at ref " + std::to_string(ref) + " has size " +
                std::to_string(c.size()) + " but its watch entry on " +
                lit_str(Lit::from_code(code)) +
                (entry.binary() ? " is tagged binary"
                                : " is missing the binary tag") +
                " — BCP would resolve it through the wrong path");
        continue;
      }
      const Lit watched = Lit::from_code(code);
      bool blocker_in_clause = false;
      for (std::uint32_t k = 0; k < c.size(); ++k) {
        if (c.lit(k) == entry.blocker) blocker_in_clause = true;
      }
      if (!blocker_in_clause || entry.blocker == watched ||
          (entry.binary() && entry.blocker != (c.lit(0) == watched
                                                   ? c.lit(1)
                                                   : c.lit(0)))) {
        add(out, "watch.blocker", code,
            "watch entry of clause " + std::to_string(ref) + " on " +
                lit_str(watched) + " carries blocker " +
                lit_str(entry.blocker) +
                (entry.binary()
                     ? ", which is not the clause's other literal"
                     : ", which is not another literal of the clause"));
      }
      where[ref].push_back(code);
    }
  }

  // Two-watched-literal scheme: each live clause of size >= 2 watched on
  // exactly its first two literals, once each.
  ctx.db.for_each([&](ClauseRef ref, ConstClauseView c) {
    if (c.size() < 2) return;
    std::vector<std::uint32_t> occ;
    const auto it = where.find(ref);
    if (it != where.end()) occ = it->second;
    std::vector<std::uint32_t> expected = {c.lit(0).code(), c.lit(1).code()};
    std::sort(occ.begin(), occ.end());
    std::sort(expected.begin(), expected.end());
    if (occ != expected) {
      std::string got = "{";
      for (std::size_t k = 0; k < occ.size(); ++k) {
        got += (k ? ", " : "") + lit_str(Lit::from_code(occ[k]));
      }
      got += "}";
      add(out, "watch.twice", ref,
          "clause at ref " + std::to_string(ref) +
              " must be watched exactly once on each of " +
              lit_str(c.lit(0)) + " and " + lit_str(c.lit(1)) +
              "; actual watch lists: " + got);
    }
  });
  return out;
}

std::vector<Violation> check_decider(const SearchContext& ctx,
                                     const solver::Decider::AuditView& dv) {
  std::vector<Violation> out;
  if (ctx.options == nullptr) return out;

  if (ctx.options->decision_mode == DecisionMode::kEvsids) {
    const std::vector<Var>& heap = dv.heap->raw_heap();
    const std::vector<double>& act = *dv.activity;
    for (std::uint32_t i = 0; i < heap.size(); ++i) {
      const Var v = heap[i];
      if (v >= ctx.num_vars) {
        add(out, "decider.heap", i,
            "heap slot " + std::to_string(i) + " holds invalid variable x" +
                std::to_string(v));
        return out;
      }
      if (dv.heap->position(v) != i) {
        add(out, "decider.heap", i,
            "position index of x" + std::to_string(v) + " says " +
                std::to_string(dv.heap->position(v)) +
                " but the variable sits at heap slot " + std::to_string(i));
      }
      if (i > 0 && act[heap[(i - 1) / 2]] < act[v]) {
        add(out, "decider.heap", i,
            "max-heap property broken at slot " + std::to_string(i) +
                ": parent x" + std::to_string(heap[(i - 1) / 2]) +
                " has lower activity than child x" + std::to_string(v));
      }
    }
    for (Var v = 0; v < ctx.num_vars; ++v) {
      if (ctx.trail.value(v) == LBool::kUndef && !dv.heap->contains(v)) {
        add(out, "decider.heap_member", static_cast<std::int64_t>(v),
            "unassigned variable x" + std::to_string(v) +
                " is missing from the EVSIDS heap and can never be picked");
      }
    }
    return out;
  }

  // VMTF: prev/next chain covers every variable exactly once starting at
  // the front, stamps strictly decrease along it, and no unassigned
  // variable sits above the search pointer.
  const std::size_t n = ctx.num_vars;
  if (n == 0) return out;
  const std::vector<Var>& nxt = *dv.vmtf_next;
  const std::vector<Var>& prv = *dv.vmtf_prev;
  const std::vector<std::uint64_t>& stamp = *dv.vmtf_stamp;
  if (dv.vmtf_front >= n || prv[dv.vmtf_front] != kNoVar) {
    add(out, "decider.vmtf_links", static_cast<std::int64_t>(dv.vmtf_front),
        "VMTF front pointer is invalid or has a predecessor");
    return out;
  }
  std::vector<std::uint8_t> seen(n, 0);
  std::size_t count = 0;
  for (Var v = dv.vmtf_front; v != kNoVar; v = nxt[v]) {
    if (v >= n || seen[v]) {
      add(out, "decider.vmtf_links", static_cast<std::int64_t>(v),
          "VMTF next-chain revisits or leaves the variable range at x" +
              std::to_string(v));
      return out;
    }
    seen[v] = 1;
    ++count;
    const Var next = nxt[v];
    if (next != kNoVar) {
      if (next >= n || prv[next] != v) {
        add(out, "decider.vmtf_links", static_cast<std::int64_t>(v),
            "VMTF links of x" + std::to_string(v) +
                " are not doubly consistent (next's prev does not point "
                "back)");
        return out;
      }
      if (stamp[next] >= stamp[v]) {
        add(out, "decider.vmtf_stamps", static_cast<std::int64_t>(next),
            "VMTF stamp of x" + std::to_string(next) + " (" +
                std::to_string(stamp[next]) +
                ") does not decrease after x" + std::to_string(v) + " (" +
                std::to_string(stamp[v]) + ")");
      }
    }
  }
  if (count != n) {
    add(out, "decider.vmtf_links", static_cast<std::int64_t>(count),
        "VMTF chain covers " + std::to_string(count) + " of " +
            std::to_string(n) + " variables");
    return out;
  }
  if (dv.vmtf_search >= n) {
    add(out, "decider.vmtf_search", static_cast<std::int64_t>(dv.vmtf_search),
        "VMTF search pointer is not a variable");
    return out;
  }
  for (Var v = 0; v < n; ++v) {
    if (ctx.trail.value(v) == LBool::kUndef &&
        stamp[v] > stamp[dv.vmtf_search]) {
      add(out, "decider.vmtf_search", static_cast<std::int64_t>(v),
          "unassigned x" + std::to_string(v) + " (stamp " +
              std::to_string(stamp[v]) + ") sits above the search pointer x" +
              std::to_string(dv.vmtf_search) + " (stamp " +
              std::to_string(stamp[dv.vmtf_search]) +
              ") and would be skipped by the next pick");
    }
  }
  return out;
}

std::vector<Violation> check_engine(const SearchContext& ctx,
                                    const solver::Propagator& prop,
                                    const solver::Decider::AuditView& dv) {
  std::vector<Violation> out = check_clause_db(ctx);
  auto append = [&out](std::vector<Violation> more) {
    out.insert(out.end(), std::make_move_iterator(more.begin()),
               std::make_move_iterator(more.end()));
  };
  append(check_trail(ctx));
  append(check_watches(ctx, prop));
  append(check_decider(ctx, dv));
  return out;
}

void check_engine_or_throw(const SearchContext& ctx,
                           const solver::Propagator& prop,
                           const solver::Decider::AuditView& dv,
                           const char* where) {
  enforce(check_engine(ctx, prop, dv), where);
}

std::vector<Violation> check_assignment(const SearchContext& ctx, Lit l,
                                        ArenaIndex& arena) {
  std::vector<Violation> out;
  if (!l.is_defined() || l.var() >= ctx.num_vars) {
    add(out, "trail.value", -1, "assignment event for an invalid literal");
    return out;
  }
  if (ctx.trail.value(l) != LBool::kTrue) {
    add(out, "trail.value", static_cast<std::int64_t>(l.var()),
        "assignment event for " + lit_str(l) +
            " but the literal does not evaluate true");
    return out;
  }
  if (arena.extend(ctx.db, out)) check_reason_of(ctx, arena, l, out);
  return out;
}

std::vector<Violation> check_learned_clause(const SearchContext& ctx,
                                            std::span<const Lit> learned) {
  std::vector<Violation> out;
  if (learned.empty()) {
    add(out, "engine.learned", -1, "conflict produced an empty clause event");
    return out;
  }
  // The event fires after the backjump and the asserting enqueue: the UIP
  // literal must be the one true literal, everything else still false.
  if (ctx.trail.value(learned[0]) != LBool::kTrue) {
    add(out, "engine.learned", 0,
        "learned clause is not asserting: UIP literal " +
            lit_str(learned[0]) + " is not true after the backjump");
  }
  for (std::size_t i = 1; i < learned.size(); ++i) {
    if (ctx.trail.value(learned[i]) != LBool::kFalse) {
      add(out, "engine.learned", static_cast<std::int64_t>(i),
          "learned clause literal " + lit_str(learned[i]) +
              " is not false after the backjump — the backjump level or "
              "the clause is wrong");
    }
  }
  return out;
}

void RuntimeAuditor::check_all(const char* where) const {
  check_engine_or_throw(ctx_, prop_, decider_.audit_view(), where);
}

void RuntimeAuditor::on_assignment(Lit l, std::uint32_t, bool) {
  // NS_SUPPRESS(allocation, throw, blocking): reached from BCP only while
  // an auditor is attached, never on an unaudited search; its diagnostics
  // allocate and throw by design.
  enforce(check_assignment(ctx_, l, arena_), "audit::runtime(assignment)");
}

void RuntimeAuditor::on_conflict(std::uint64_t conflicts, std::uint32_t,
                                 std::span<const Lit> learned, std::uint32_t) {
  enforce(check_learned_clause(ctx_, learned), "audit::runtime(conflict)");
  if (conflicts % 64 == 0) enforce(check_trail(ctx_), "audit::runtime(trail)");
}

void RuntimeAuditor::on_restart(std::uint64_t, std::uint64_t) {
  check_all("audit::runtime(restart)");
}

void RuntimeAuditor::on_reduce(std::uint64_t, std::size_t, std::size_t) {
  check_all("audit::runtime(reduce)");
}

void RuntimeAuditor::on_garbage_collect() {
  enforce(check_gc_forwarding(ctx_.db), "audit::runtime(gc)");
  arena_.clear();
  check_all("audit::runtime(gc)");
}

void RuntimeAuditor::on_solve_begin(std::uint64_t, std::span<const Lit>) {
  arena_.clear();
  check_all("audit::runtime(solve_begin)");
}

void RuntimeAuditor::on_solve_end(std::uint64_t, solver::SatResult,
                                  const solver::Statistics&) {
  check_all("audit::runtime(solve_end)");
}

}  // namespace ns::audit
