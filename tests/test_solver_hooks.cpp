/// \file test_solver_hooks.cpp
/// Engine event hooks: every event class fires with counts consistent with
/// the run's Statistics, the propagation histogram reproduces the f_v
/// totals, and the listener chain fans events out unchanged.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gen/generators.hpp"
#include "solver/solver.hpp"

namespace ns::solver {
namespace {

struct RecordingListener final : EngineListener {
  std::uint64_t assignments = 0;
  std::uint64_t propagated_assignments = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t reductions = 0;
  std::uint64_t collections = 0;
  std::size_t deleted_total = 0;
  std::uint32_t max_glue = 0;
  bool empty_learned_seen = false;

  void on_assignment(Lit, std::uint32_t, bool propagated) override {
    ++assignments;
    if (propagated) ++propagated_assignments;
  }
  void on_conflict(std::uint64_t, std::uint32_t conflict_level,
                   std::span<const Lit> learned, std::uint32_t glue) override {
    ++conflicts;
    EXPECT_GT(conflict_level, 0u);
    if (learned.empty()) empty_learned_seen = true;
    max_glue = std::max(max_glue, glue);
  }
  void on_restart(std::uint64_t restart_count, std::uint64_t) override {
    ++restarts;
    EXPECT_EQ(restart_count, restarts);
  }
  void on_reduce(std::uint64_t reduce_count, std::size_t deleted,
                 std::size_t) override {
    ++reductions;
    EXPECT_EQ(reduce_count, reductions);
    deleted_total += deleted;
  }
  void on_garbage_collect() override { ++collections; }
};

SolverOptions busy_options() {
  SolverOptions opts;
  opts.reduce_interval = 40;   // force several reductions
  opts.restart_interval = 16;  // and several restarts
  opts.restart_mode = RestartMode::kLuby;
  return opts;
}

TEST(EngineHooksTest, EventCountsMatchStatistics) {
  const CnfFormula f = gen::pigeonhole(8, 7);
  Solver s(busy_options());
  RecordingListener rec;
  s.set_listener(&rec);
  s.load(f);
  const SolveOutcome out = s.solve();
  ASSERT_EQ(out.result, SatResult::kUnsat);

  // The final root-level conflict ends the search before analysis, so it
  // produces no on_conflict event.
  EXPECT_EQ(rec.conflicts, out.stats.conflicts - 1);
  EXPECT_FALSE(rec.empty_learned_seen);
  EXPECT_GE(rec.max_glue, 1u);
  EXPECT_EQ(rec.restarts, out.stats.restarts);
  EXPECT_GT(rec.restarts, 0u);
  EXPECT_EQ(rec.reductions, out.stats.reductions);
  EXPECT_GT(rec.reductions, 0u);
  EXPECT_EQ(rec.deleted_total, out.stats.deleted_clauses);
  // Eager collection (gc_frac == 0): every reduce compacts the arena once,
  // and none of those compactions is a deferred garbage_collections one.
  EXPECT_EQ(rec.collections, out.stats.reductions);
  EXPECT_EQ(out.stats.garbage_collections, 0u);
  // Every enqueue is either a decision or a (re-)propagation.
  EXPECT_EQ(rec.assignments, out.stats.decisions + out.stats.propagations);
  EXPECT_EQ(rec.propagated_assignments, out.stats.propagations);
}

TEST(EngineHooksTest, DeferredCollectionsFireOneEventEach) {
  // gc_frac > 0: reduces only mark garbage, and each deferred or forced
  // compaction fires exactly one collection event.
  const CnfFormula f = gen::pigeonhole(8, 7);
  SolverOptions opts = busy_options();
  opts.gc_frac = 0.1;
  Solver s(opts);
  RecordingListener rec;
  s.set_listener(&rec);
  s.load(f);
  ASSERT_EQ(s.solve().result, SatResult::kUnsat);
  EXPECT_GT(s.stats().garbage_collections, 0u);
  EXPECT_LT(s.stats().garbage_collections, s.stats().reductions);
  EXPECT_EQ(rec.collections, s.stats().garbage_collections);
  s.garbage_collect();
  EXPECT_EQ(rec.collections, s.stats().garbage_collections);
}

TEST(EngineHooksTest, HistogramTotalsMatchPropagationCount) {
  const CnfFormula f = gen::random_ksat(60, 258, 3, 11);
  Solver s(busy_options());
  PropagationHistogram hist(f.num_vars());
  s.set_listener(&hist);
  s.load(f);
  const SolveOutcome out = s.solve();
  ASSERT_NE(out.result, SatResult::kUnknown);
  std::uint64_t total = 0;
  for (std::uint64_t c : hist.counts()) total += c;
  EXPECT_EQ(total, out.stats.propagations);
}

TEST(EngineHooksTest, ListenerIsTrajectoryNeutral) {
  // Attaching a listener must not perturb the search in any way.
  const CnfFormula f = gen::pigeonhole(7, 6);
  const SolveOutcome bare = solve_formula(f, busy_options());

  Solver s(busy_options());
  RecordingListener rec;
  s.set_listener(&rec);
  s.load(f);
  const SolveOutcome hooked = s.solve();

  EXPECT_EQ(bare.stats.ticks, hooked.stats.ticks);
  EXPECT_EQ(bare.stats.conflicts, hooked.stats.conflicts);
  EXPECT_EQ(bare.stats.decisions, hooked.stats.decisions);
  EXPECT_EQ(bare.stats.propagations, hooked.stats.propagations);
}

TEST(EngineHooksTest, ChainFansOutToAllListeners) {
  const CnfFormula f = gen::pigeonhole(7, 6);
  RecordingListener a, b;
  PropagationHistogram hist(f.num_vars());
  ListenerChain chain;
  chain.add(&a);
  chain.add(&b);
  chain.add(&hist);

  Solver s(busy_options());
  s.set_listener(&chain);
  s.load(f);
  const SolveOutcome out = s.solve();

  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.conflicts, b.conflicts);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.reductions, b.reductions);
  std::uint64_t total = 0;
  for (std::uint64_t c : hist.counts()) total += c;
  EXPECT_EQ(total, out.stats.propagations);
}

}  // namespace
}  // namespace ns::solver
