#include "solver/propagate.hpp"

#include <cassert>

namespace ns::solver {

void Propagator::attach(ClauseRef ref) {
  ClauseView c = ctx_.db.view(ref);
  assert(c.size() >= 2);
  const bool binary = c.size() == 2;
  watches_.push(c.lit(0).code(), Watch(ref, c.lit(1), binary));
  watches_.push(c.lit(1).code(), Watch(ref, c.lit(0), binary));
}

void Propagator::detach(ClauseRef ref) {
  ClauseView c = ctx_.db.view(ref);
  assert(c.size() >= 2);
  // Propagation normalization keeps the watched pair at indices 0 and 1.
  for (const Lit l : {c.lit(0), c.lit(1)}) {
    const std::uint32_t code = l.code();
    const std::uint32_t count = watches_.size(code);
    Watch* ws = watches_.data(code);
    std::uint32_t j = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      if (ws[i].ref() != ref) ws[j++] = ws[i];
    }
    assert(j + 1 == count);
    watches_.truncate(code, j);
  }
}

void Propagator::rebuild() {
  watches_.clear_lists();
  ctx_.db.for_each([this](ClauseRef ref, ClauseView c) {
    (void)c;
    attach(ref);
  });
}

void Propagator::remap_watches(const ClauseDb& db) {
  const std::size_t lists = watches_.num_lists();
  for (std::size_t code = 0; code < lists; ++code) {
    const std::uint32_t c = static_cast<std::uint32_t>(code);
    const std::uint32_t count = watches_.size(c);
    Watch* ws = watches_.data(c);
    std::uint32_t j = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const ClauseRef fwd = db.forward(ws[i].ref());
      if (fwd == kInvalidClause) continue;  // clause died; drop its watch
      ws[j++] = Watch(fwd, ws[i].blocker, ws[i].binary());
    }
    watches_.truncate(c, j);
  }
}

// NS_HOT(the BCP inner loop — the single hottest path in the solver)
ClauseRef Propagator::propagate() {
  // Safe point: no list iteration is in flight between propagate calls.
  watches_.maybe_defrag();

  Trail& trail = ctx_.trail;
  Statistics& stats = ctx_.stats;
  // Hot-loop pointer caches. Both bases are stable for the whole pass:
  // the value array is sized once at reset() and BCP never allocates
  // clauses, so holding raw pointers in locals spares every lookup the
  // ctx_ -> vector -> data pointer chase (the compiler cannot hoist those
  // loads itself past the watch stores). The value array is literal-indexed,
  // so every literal read below is the single load `values[l.code()]`.
  const LBool* const values = trail.values_data();
  std::uint32_t* const arena = ctx_.db.raw();
  // Tick counters stay in registers for the whole pass; flushed on exit.
  std::uint64_t ticks = 0, ticks_binary = 0;
  const auto flush = [&] {
    stats.ticks += ticks;
    stats.ticks_binary += ticks_binary;
    stats.ticks_long += ticks - ticks_binary;
  };
  while (trail.qhead < trail.size()) {
    const Lit p = trail[trail.qhead++];  // p just became true
    const Lit false_lit = ~p;            // clauses watching ~p are affected
    const std::uint32_t code = false_lit.code();
    // Walk the list through a raw block pointer: the count is fixed for the
    // whole pass (pushes only ever target *other* literals' lists) and only
    // a push can reallocate the slab, so `ws` is re-fetched after each one.
    const std::uint32_t count = watches_.size(code);
    Watch* ws = watches_.data(code);
    std::uint32_t i = 0, j = 0;
    ClauseRef conflict = kInvalidClause;
    while (i < count) {
      const Watch w = ws[i++];
      ticks_binary += static_cast<std::uint64_t>(w.binary());
      const LBool blocker_value = values[w.blocker.code()];
      // The satisfied-by-blocker exit is by far the most common outcome, so
      // it is taken before the binary/long discrimination: for binary
      // watches the blocker IS the other literal, making this the same
      // "clause satisfied" test, and keeping the data-dependent binary
      // branch off the hottest path.
      if (blocker_value == LBool::kTrue) {
        ws[j++] = w;
        continue;
      }
      if (w.binary()) {
        // Inline binary resolution: the watch entry alone decides unit vs
        // conflicting and the clause arena is never touched.
        if (blocker_value == LBool::kFalse) {
          // Conflict analysis iterates the conflict clause in arena order;
          // normalize here (rare, off the hot path) so the other literal
          // sits at index 0 just as propagation-time normalization would
          // have left it.
          ClauseView c(arena + w.ref());
          if (c.lit(0) == false_lit) {
            c.set_lit(0, c.lit(1));
            c.set_lit(1, false_lit);
          }
          conflict = w.ref();
          ticks += i;  // entries visited this pass (one per iteration)
          // Keep this watch, copy the unexamined tail, and bail out.
          ws[j++] = w;
          while (i < count) ws[j++] = ws[i++];
          break;
        }
        ws[j++] = w;
        ++stats.propagations_binary;
        ctx_.enqueue(w.blocker, w.ref());
        continue;
      }
      ClauseView c(arena + w.ref());
      // Normalize so the false watched literal sits at index 1.
      if (c.lit(0) == false_lit) {
        c.set_lit(0, c.lit(1));
        c.set_lit(1, false_lit);
      }
      const Lit first = c.lit(0);
      if (first != w.blocker && values[first.code()] == LBool::kTrue) {
        ws[j++] = Watch(w.ref(), first, false);
        continue;
      }
      // Look for a replacement watch.
      bool moved = false;
      for (std::uint32_t k = 2; k < c.size(); ++k) {
        const Lit alt = c.lit(k);
        if (values[alt.code()] != LBool::kFalse) {
          c.set_lit(1, alt);
          c.set_lit(k, false_lit);
          watches_.push(alt.code(), Watch(w.ref(), first, false));
          ws = watches_.data(code);  // push may have reallocated the slab
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Clause is unit or conflicting on `first`.
      if (values[first.code()] == LBool::kFalse) {
        conflict = w.ref();
        ticks += i;  // entries visited this pass (one per iteration)
        // Keep this watch, copy the unexamined tail, and bail out.
        ws[j++] = Watch(w.ref(), first, false);
        while (i < count) ws[j++] = ws[i++];
        break;
      }
      ws[j++] = Watch(w.ref(), first, false);
      ++stats.propagations_long;
      ctx_.enqueue(first, w.ref());
    }
    if (conflict == kInvalidClause) ticks += i;  // i == count here
    watches_.truncate(code, j);
    if (conflict != kInvalidClause) {
      flush();
      return conflict;
    }
  }
  flush();
  return kInvalidClause;
}

}  // namespace ns::solver
