#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "solver/clause_db.hpp"
#include "solver/heap.hpp"
#include "solver/trail.hpp"
#include "solver/watch.hpp"

namespace ns::solver {
namespace {

std::vector<Lit> lits(std::initializer_list<int> dimacs) {
  std::vector<Lit> out;
  for (int d : dimacs) out.push_back(Lit::from_dimacs(d));
  return out;
}

// --- ClauseDb / arena ---------------------------------------------------------

TEST(ClauseDbTest, AddAndReadBack) {
  ClauseDb db;
  const ClauseRef r = db.add(lits({1, -2, 3}), /*learned=*/true, /*glue=*/2);
  ClauseView c = db.view(r);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_TRUE(c.learned());
  EXPECT_FALSE(c.garbage());
  EXPECT_EQ(c.glue(), 2u);
  EXPECT_EQ(c.lit(0), Lit::from_dimacs(1));
  EXPECT_EQ(c.lit(1), Lit::from_dimacs(-2));
  EXPECT_EQ(c.lit(2), Lit::from_dimacs(3));
}

TEST(ClauseDbTest, FlagsAreIndependent) {
  ClauseDb db;
  ClauseView c = db.view(db.add(lits({1, 2}), true, 7));
  c.set_used(true);
  EXPECT_TRUE(c.used());
  EXPECT_FALSE(c.garbage());
  EXPECT_EQ(c.glue(), 7u);  // glue untouched by flag writes
  c.set_glue(3);
  EXPECT_TRUE(c.used());  // flags untouched by glue writes
  c.set_used(false);
  EXPECT_FALSE(c.used());
}

TEST(ClauseDbTest, CountsTrackLearnedAndGarbage) {
  ClauseDb db;
  const ClauseRef a = db.add(lits({1, 2}), false, 0);
  const ClauseRef b = db.add(lits({2, 3}), true, 4);
  (void)a;
  EXPECT_EQ(db.num_clauses(), 2u);
  EXPECT_EQ(db.num_learned(), 1u);
  db.mark_garbage(b);
  db.mark_garbage(b);  // idempotent
  EXPECT_EQ(db.num_clauses(), 1u);
  EXPECT_EQ(db.num_learned(), 0u);
  EXPECT_GT(db.garbage_words(), 0u);
}

TEST(ClauseDbTest, CollectGarbageCompactsAndForwards) {
  ClauseDb db;
  const ClauseRef a = db.add(lits({1, 2}), false, 0);
  const ClauseRef b = db.add(lits({2, 3, 4}), true, 3);
  const ClauseRef c = db.add(lits({-1, -4}), true, 2);
  db.mark_garbage(b);
  const std::size_t words_before = db.arena_words();
  db.garbage_collect();
  EXPECT_LT(db.arena_words(), words_before);
  EXPECT_EQ(db.garbage_words(), 0u);

  const ClauseRef a2 = db.forward(a);
  const ClauseRef b2 = db.forward(b);
  const ClauseRef c2 = db.forward(c);
  EXPECT_NE(a2, kInvalidClause);
  EXPECT_EQ(b2, kInvalidClause);
  EXPECT_NE(c2, kInvalidClause);
  EXPECT_EQ(db.view(a2).lit(0), Lit::from_dimacs(1));
  EXPECT_EQ(db.view(c2).lit(1), Lit::from_dimacs(-4));
  EXPECT_EQ(db.view(c2).glue(), 2u);
}

TEST(ClauseDbTest, ForEachSkipsGarbage) {
  ClauseDb db;
  db.add(lits({1, 2}), false, 0);
  const ClauseRef b = db.add(lits({3, 4}), false, 0);
  db.add(lits({5, 6}), false, 0);
  db.mark_garbage(b);
  std::size_t live = 0;
  db.for_each([&](ClauseRef, ClauseView) { ++live; });
  EXPECT_EQ(live, 2u);
}

TEST(ClauseDbTest, ConstAccessUsesReadOnlyViews) {
  ClauseDb db;
  const ClauseRef r = db.add(lits({1, -2, 3}), true, 4);

  const ClauseDb& cdb = db;
  ConstClauseView c = cdb.view(r);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_TRUE(c.learned());
  EXPECT_EQ(c.glue(), 4u);
  EXPECT_EQ(c.lit(1), Lit::from_dimacs(-2));
  EXPECT_EQ(c.end() - c.begin(), 3);

  std::size_t live = 0;
  cdb.for_each([&](ClauseRef, ConstClauseView v) { live += v.size() > 0; });
  EXPECT_EQ(live, 1u);
}

TEST(ClauseDbTest, ShrinkReducesSizeAndAccountsSlack) {
  ClauseDb db;
  const ClauseRef r = db.add(lits({1, 2, 3, 4}), true, 2);
  EXPECT_EQ(db.garbage_words(), 0u);
  db.shrink(r, 2);
  ClauseView c = db.view(r);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.extent(), 4u);  // allocation unchanged; slack is dead
  EXPECT_EQ(db.garbage_words(), 2u);
}

TEST(ClauseDbTest, ForEachStridesOverShrunkClauses) {
  // The footgun this guards against: shrink rewrites the size word, and a
  // traversal keyed on size (instead of extent) would misalign on every
  // clause placed after a shrunken one.
  ClauseDb db;
  const ClauseRef a = db.add(lits({1, 2, 3, 4, 5}), false, 0);
  const ClauseRef b = db.add(lits({-1, -2, -3}), true, 2);
  db.shrink(a, 2);
  std::vector<ClauseRef> seen;
  db.for_each([&](ClauseRef ref, ClauseView) { seen.push_back(ref); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], a);
  EXPECT_EQ(seen[1], b);
  EXPECT_EQ(db.view(b).lit(0), Lit::from_dimacs(-1));
}

TEST(ClauseDbTest, CollectGarbageSqueezesShrinkSlack) {
  ClauseDb db;
  const ClauseRef a = db.add(lits({1, 2, 3, 4, 5, 6}), false, 0);
  const ClauseRef b = db.add(lits({-5, -6}), true, 3);
  db.shrink(a, 3);
  db.garbage_collect();
  EXPECT_EQ(db.garbage_words(), 0u);
  const ClauseRef a2 = db.forward(a);
  const ClauseRef b2 = db.forward(b);
  ASSERT_NE(a2, kInvalidClause);
  ASSERT_NE(b2, kInvalidClause);
  EXPECT_EQ(db.view(a2).size(), 3u);
  EXPECT_EQ(db.view(a2).extent(), 3u);  // slack squeezed out
  EXPECT_EQ(db.view(a2).lit(2), Lit::from_dimacs(3));
  EXPECT_EQ(db.view(b2).lit(1), Lit::from_dimacs(-6));
  // Arena is fully dense again: clause b starts right after clause a.
  EXPECT_EQ(b2, a2 + ClauseDb::kHeaderWords + 3);
}

TEST(ClauseDbTest, MarkGarbageAfterShrinkCountsOnlyLiveWords) {
  ClauseDb db;
  const ClauseRef r = db.add(lits({1, 2, 3, 4}), true, 2);
  db.shrink(r, 2);                    // 2 words of slack
  db.mark_garbage(r);                 // header + 2 live literals
  EXPECT_EQ(db.garbage_words(), 2u + ClauseDb::kHeaderWords + 2u);
  db.garbage_collect();
  EXPECT_EQ(db.arena_words(), 0u);
  EXPECT_EQ(db.garbage_words(), 0u);
}

// --- WatcherArena ------------------------------------------------------------

TEST(WatcherArenaTest, PushGetTruncateRoundTrip) {
  WatcherArena arena;
  arena.reset(4);
  arena.push(1, Watch(8, Lit::from_dimacs(1), false));
  arena.push(1, Watch(16, Lit::from_dimacs(-2), true));
  arena.push(3, Watch(24, Lit::from_dimacs(2), false));
  ASSERT_EQ(arena.size(1), 2u);
  ASSERT_EQ(arena.size(3), 1u);
  EXPECT_EQ(arena.get(1, 0).ref(), 8u);
  EXPECT_FALSE(arena.get(1, 0).binary());
  EXPECT_EQ(arena.get(1, 1).ref(), 16u);
  EXPECT_TRUE(arena.get(1, 1).binary());
  EXPECT_EQ(arena.get(1, 1).blocker, Lit::from_dimacs(-2));
  arena.truncate(1, 1);
  EXPECT_EQ(arena.size(1), 1u);
  EXPECT_EQ(arena.get(3, 0).ref(), 24u);
}

TEST(WatcherArenaTest, RelocationPreservesOrderAndLeavesHoles) {
  WatcherArena arena;
  arena.reset(2);
  // Interleave pushes so both lists relocate several times.
  for (std::uint32_t i = 0; i < 40; ++i) {
    arena.push(0, Watch(4 * i, Lit::from_dimacs(1), false));
    arena.push(1, Watch(4 * i + 2, Lit::from_dimacs(-1), false));
  }
  ASSERT_EQ(arena.size(0), 40u);
  ASSERT_EQ(arena.size(1), 40u);
  for (std::uint32_t i = 0; i < 40; ++i) {
    EXPECT_EQ(arena.get(0, i).ref(), 4 * i);
    EXPECT_EQ(arena.get(1, i).ref(), 4 * i + 2);
  }
  EXPECT_GT(arena.dead_entries(), 0u);  // growth left relocation holes
  EXPECT_EQ(arena.live_entries(), 80u);
}

TEST(WatcherArenaTest, DefragCompactsWithoutReordering) {
  WatcherArena arena;
  arena.reset(8);
  // Force enough churn that the defrag threshold (>= 1024 dead entries and
  // dead >= a quarter of the slab) is reached.
  for (std::uint32_t round = 0; round < 9; ++round) {
    for (std::uint32_t code = 0; code < 8; ++code) {
      for (std::uint32_t i = 0; i < (1u << round) / 4 + 1; ++i) {
        arena.push(code, Watch(8 * (round * 1000 + i),
                               Lit::from_dimacs(1), false));
      }
    }
  }
  const std::size_t live = arena.live_entries();
  std::vector<std::uint32_t> before;
  for (std::uint32_t i = 0; i < arena.size(5); ++i) {
    before.push_back(arena.get(5, i).ref());
  }
  arena.maybe_defrag();
  EXPECT_EQ(arena.live_entries(), live);
  EXPECT_EQ(arena.dead_entries(), 0u);
  // Dense up to the per-block head-room defrag grants (~50%) so that the
  // next push does not immediately relocate a freshly compacted block.
  EXPECT_LT(arena.slab_entries(), 2 * live);
  ASSERT_EQ(arena.size(5), before.size());
  for (std::uint32_t i = 0; i < arena.size(5); ++i) {
    EXPECT_EQ(arena.get(5, i).ref(), before[i]);
  }
}

// --- VarHeap -----------------------------------------------------------------

TEST(VarHeapTest, PopsInActivityOrder) {
  std::vector<double> activity = {1.0, 5.0, 3.0, 4.0, 2.0};
  VarHeap heap(activity);
  for (Var v = 0; v < 5; ++v) heap.insert(v);
  std::vector<Var> order;
  while (!heap.empty()) order.push_back(heap.pop());
  EXPECT_EQ(order, (std::vector<Var>{1, 3, 2, 4, 0}));
}

TEST(VarHeapTest, InsertIsIdempotent) {
  std::vector<double> activity = {1.0, 2.0};
  VarHeap heap(activity);
  heap.insert(0);
  heap.insert(0);
  heap.insert(1);
  EXPECT_EQ(heap.size(), 2u);
}

TEST(VarHeapTest, IncreasedRestoresOrder) {
  std::vector<double> activity = {1.0, 2.0, 3.0};
  VarHeap heap(activity);
  for (Var v = 0; v < 3; ++v) heap.insert(v);
  activity[0] = 10.0;
  heap.increased(0);
  EXPECT_EQ(heap.pop(), 0u);
  EXPECT_EQ(heap.pop(), 2u);
  EXPECT_EQ(heap.pop(), 1u);
}

TEST(VarHeapTest, ContainsTracksMembership) {
  std::vector<double> activity = {1.0, 2.0};
  VarHeap heap(activity);
  EXPECT_FALSE(heap.contains(0));
  heap.insert(0);
  EXPECT_TRUE(heap.contains(0));
  heap.pop();
  EXPECT_FALSE(heap.contains(0));
}

TEST(VarHeapTest, RandomizedAgainstSort) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 20; ++round) {
    std::vector<double> activity(50);
    std::uniform_real_distribution<double> dist(0.0, 100.0);
    for (double& a : activity) a = dist(rng);
    VarHeap heap(activity);
    for (Var v = 0; v < 50; ++v) heap.insert(v);

    std::vector<Var> expected(50);
    for (Var v = 0; v < 50; ++v) expected[v] = v;
    std::stable_sort(expected.begin(), expected.end(), [&](Var a, Var b) {
      return activity[a] > activity[b];
    });
    for (Var v : expected) {
      const Var got = heap.pop();
      EXPECT_DOUBLE_EQ(activity[got], activity[v]);
    }
  }
}

// --- Trail -------------------------------------------------------------------

/// Every variable's two literal slots agree with each other, with
/// `value(Var)`, and with the reference assignment `model`.
::testing::AssertionResult slots_match(const Trail& trail,
                                       const std::vector<LBool>& model) {
  for (Var v = 0; v < model.size(); ++v) {
    const LBool pos = trail.value(Lit(v, false));
    const LBool neg = trail.value(Lit(v, true));
    if (neg != negate(pos)) {
      return ::testing::AssertionFailure() << "x" << v << " slots not paired";
    }
    if (trail.value(v) != pos) {
      return ::testing::AssertionFailure()
             << "value(x" << v << ") differs from its positive literal";
    }
    if (pos != model[v]) {
      return ::testing::AssertionFailure() << "x" << v << " differs from model";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(TrailTest, LiteralSlotsStayPairedUnderRandomAssignAndShrink) {
  constexpr Var kVars = 300;
  std::mt19937_64 rng(11);
  Trail trail;
  trail.reset(kVars);
  std::vector<LBool> model(kVars, LBool::kUndef);
  std::size_t unassigned_calls = 0;
  for (int step = 0; step < 3000; ++step) {
    if (trail.size() < kVars && rng() % 4 != 0) {
      Var v = static_cast<Var>(rng() % kVars);
      while (model[v] != LBool::kUndef) v = (v + 1) % kVars;
      const Lit l(v, rng() % 2 == 1);
      // The first steps assign at level 0, which no shrink ever unwinds.
      if (step >= 10 && (trail.decision_level() == 0 || rng() % 3 == 0)) {
        trail.push_level();
      }
      trail.assign(l, kInvalidClause);
      model[v] = l.negated() ? LBool::kFalse : LBool::kTrue;
    } else if (trail.decision_level() > 0) {
      const auto target =
          static_cast<std::uint32_t>(rng() % trail.decision_level());
      const std::size_t expected_pops =
          trail.size() - trail.level_begin(target);
      std::size_t pops = 0;
      trail.shrink_to_level(target, [&](Lit l, LBool erased) {
        // The callback sees the variable's value, before it is cleared.
        EXPECT_EQ(erased, model[l.var()]);
        EXPECT_EQ(trail.value(l), LBool::kTrue);
        model[l.var()] = LBool::kUndef;
        ++pops;
      });
      EXPECT_EQ(pops, expected_pops);
      unassigned_calls += pops;
    }
    ASSERT_TRUE(slots_match(trail, model)) << "after step " << step;
  }
  EXPECT_GT(unassigned_calls, 1000u);  // the sequence really exercised shrink
}

}  // namespace
}  // namespace ns::solver
