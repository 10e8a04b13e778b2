/// Incremental-engine suite: differential agreement with fresh single-shot
/// solvers, multi-query stats semantics, clause addition between queries,
/// budgets/interrupt, and clause-DB garbage collection (deferred and
/// forced) — including the 100-query assumption stream the ISSUE pins:
/// zero audit violations with at least one mid-stream collection that
/// reclaims >= 20% of the clause arena.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "audit/solver_audit.hpp"
#include "gen/generators.hpp"
#include "solver/proof.hpp"
#include "solver/solver.hpp"
#include "trajectory_corpus.hpp"

namespace ns::solver {
namespace {

bool contains(const std::vector<Lit>& v, Lit l) {
  return std::find(v.begin(), v.end(), l) != v.end();
}

/// Per-query counters must match field by field; garbage_collections is
/// excluded (forced collections are the one permitted divergence — they
/// must be trajectory-transparent, which the other fields prove).
void expect_same_query_stats(const Statistics& a, const Statistics& b,
                             const char* where) {
  EXPECT_EQ(a.decisions, b.decisions) << where;
  EXPECT_EQ(a.propagations, b.propagations) << where;
  EXPECT_EQ(a.ticks, b.ticks) << where;
  EXPECT_EQ(a.conflicts, b.conflicts) << where;
  EXPECT_EQ(a.restarts, b.restarts) << where;
  EXPECT_EQ(a.reductions, b.reductions) << where;
  EXPECT_EQ(a.learned_clauses, b.learned_clauses) << where;
  EXPECT_EQ(a.learned_literals, b.learned_literals) << where;
  EXPECT_EQ(a.deleted_clauses, b.deleted_clauses) << where;
  EXPECT_EQ(a.minimized_literals, b.minimized_literals) << where;
  EXPECT_EQ(a.max_trail, b.max_trail) << where;
  EXPECT_EQ(a.ticks_binary, b.ticks_binary) << where;
  EXPECT_EQ(a.ticks_long, b.ticks_long) << where;
  EXPECT_EQ(a.propagations_binary, b.propagations_binary) << where;
  EXPECT_EQ(a.propagations_long, b.propagations_long) << where;
  EXPECT_EQ(a.analyze_ticks, b.analyze_ticks) << where;
  EXPECT_EQ(a.minimize_ticks, b.minimize_ticks) << where;
  EXPECT_EQ(a.decide_ticks, b.decide_ticks) << where;
  EXPECT_EQ(a.reduce_ticks, b.reduce_ticks) << where;
}

/// Deterministic assumption set for query `q`: two distinct literals with
/// query-dependent variables and signs, so a stream alternates between
/// satisfiable and conflicting regions.
std::vector<Lit> stream_assumptions(int q, std::size_t num_vars) {
  const Var v1 = static_cast<Var>((q * 7 + 1) % num_vars);
  const Var v2 = static_cast<Var>((q * 13 + 5) % num_vars);
  std::vector<Lit> out;
  out.push_back(Lit(v1, q % 2 == 0));
  if (v2 != v1) out.push_back(Lit(v2, q % 3 == 0));
  return out;
}

TEST(IncrementalTest, AgreesWithFreshSolverPlusAssumptionUnits) {
  // For every golden instance: solve(assumptions) on a loaded engine must
  // agree with a fresh single-shot solver given formula + assumptions as
  // unit clauses.
  for (const auto& [name, formula] : testing::trajectory_instances()) {
    SolverOptions options;
    options.reduce_interval = 40;
    options.restart_interval = 16;
    Solver incremental{options};
    incremental.load(formula);

    for (int q = 0; q < 3; ++q) {
      const std::vector<Lit> assume =
          stream_assumptions(q, formula.num_vars());
      const SolveOutcome inc = incremental.solve(assume);
      ASSERT_NE(inc.result, SatResult::kUnknown) << name;

      CnfFormula with_units = formula;
      for (const Lit a : assume) with_units.add_clause({a});
      const SolveOutcome fresh = solve_formula(with_units, options);
      EXPECT_EQ(inc.result, fresh.result) << name << " query " << q;
      if (inc.result == SatResult::kSat) {
        EXPECT_TRUE(with_units.satisfied_by(inc.model)) << name;
      }
    }
  }
}

TEST(IncrementalTest, RepeatedEmptySolveIsIdempotent) {
  for (const auto& [name, formula] : testing::trajectory_instances()) {
    SolverOptions options;
    options.reduce_interval = 40;
    options.restart_interval = 16;
    Solver s{options};
    s.load(formula);
    const SolveOutcome first = s.solve();
    ASSERT_NE(first.result, SatResult::kUnknown) << name;
    for (int q = 0; q < 4; ++q) {
      const SolveOutcome again = s.solve();
      EXPECT_EQ(again.result, first.result) << name << " repeat " << q;
      if (again.result == SatResult::kSat) {
        EXPECT_TRUE(formula.satisfied_by(again.model)) << name;
      }
    }
  }
}

TEST(IncrementalTest, ForcedGcIsTrajectoryTransparent) {
  // Two engines, identical query stream; one is force-collected after
  // every query. gc_frac = 0.999 defers deletions indefinitely, so engine
  // `b` really compacts accumulated garbage mid-stream — and every
  // per-query counter must still match engine `a` bit for bit.
  const CnfFormula f = gen::random_ksat(90, 385, 3, 13);
  SolverOptions options;
  options.reduce_interval = 30;
  options.restart_interval = 16;
  options.gc_frac = 0.999;
  Solver a{options};
  Solver b{options};
  a.load(f);
  b.load(f);

  bool saw_garbage = false;
  for (int q = 0; q < 12; ++q) {
    const std::vector<Lit> assume = stream_assumptions(q, f.num_vars());
    const SolveOutcome oa = a.solve(assume);
    const SolveOutcome ob = b.solve(assume);
    EXPECT_EQ(oa.result, ob.result) << "query " << q;
    expect_same_query_stats(oa.stats, ob.stats, "forced-gc stream");
    saw_garbage |= b.context().db.garbage_words() > 0;
    b.garbage_collect();
  }
  // The comparison is only meaningful if collections actually moved data.
  EXPECT_TRUE(saw_garbage);
  EXPECT_GT(b.stats().garbage_collections,
            a.stats().garbage_collections);
}

TEST(IncrementalTest, HundredQueryStreamWithMidStreamGc) {
  // 100 assumption queries over one loaded formula, deferred GC, and a
  // mid-stream collection reclaiming >= 20% of the clause arena — with zero
  // audit violations: the attached auditor checks every assignment,
  // learned clause and collection, and the whole engine at every query
  // boundary, restart and reduce.
  // Near the phase transition with a SAT/UNSAT-mixed assumption stream
  // (~half each); a dense reduce schedule keeps deleting clauses so
  // deferred garbage builds well past the 20% reclaim target.
  const CnfFormula f = gen::random_ksat(150, 630, 3, 21);
  SolverOptions options;
  options.reduce_interval = 10;
  options.reduce_interval_inc = 0;
  options.restart_interval = 16;
  options.gc_frac = 0.999;  // defer: let garbage build up past 20%
  Solver s{options};
  audit::RuntimeAuditor auditor(s.context(), s.propagator(), s.decider());
  s.set_listener(&auditor);
  s.load(f);

  bool reclaimed = false;
  std::vector<std::pair<std::vector<Lit>, SatResult>> replay;
  for (int q = 0; q < 100; ++q) {
    const std::vector<Lit> assume = stream_assumptions(q, f.num_vars());
    const SolveOutcome out = s.solve(assume);
    ASSERT_NE(out.result, SatResult::kUnknown) << "query " << q;
    if (out.result == SatResult::kSat) {
      EXPECT_TRUE(f.satisfied_by(out.model)) << "query " << q;
    } else {
      for (const Lit l : out.core) {
        EXPECT_TRUE(contains(assume, l)) << "query " << q;
      }
    }
    if (q < 10) replay.emplace_back(assume, out.result);

    const ClauseDb& db = s.context().db;
    if (!reclaimed && db.garbage_words() * 5 >= db.arena_words() &&
        db.arena_words() > 0) {
      const std::size_t before = db.arena_words();
      s.garbage_collect();
      const std::size_t after = db.arena_words();
      EXPECT_LE(after + before / 5, before)
          << "mid-stream GC reclaimed less than 20% of the arena";
      // The relocation invariants hold at the collection boundary (later
      // reductions re-mark clauses garbage, staling the table).
      audit::enforce(audit::check_gc_forwarding(db), "test::stream-gc");
      reclaimed = true;
    }
  }
  EXPECT_TRUE(reclaimed) << "stream never accumulated 20% garbage";
  EXPECT_EQ(s.stats().queries, 100u);
  EXPECT_GE(s.stats().garbage_collections, 1u);

  // Learned state must not change answers: the first ten assumption sets
  // still decide the same way on the much-mutated engine.
  for (const auto& [assume, result] : replay) {
    EXPECT_EQ(s.solve(assume).result, result);
  }

  // One more whole-engine audit, called directly instead of by the listener.
  audit::check_engine_or_throw(s.context(), s.propagator(),
                               s.decider().audit_view(), "test::stream");
}

TEST(IncrementalTest, CoreIsSubsetAndUnsatWhenReasserted) {
  const CnfFormula f = gen::graph_coloring(8, 0.4, 3, 2);  // satisfiable
  Solver s{SolverOptions{}};
  s.load(f);
  ASSERT_EQ(s.solve().result, SatResult::kSat);

  // Vertex 0 must take exactly one colour; assuming two at once is UNSAT.
  const std::vector<Lit> assume = {Lit(0, false), Lit(1, false),
                                   Lit(5, false)};
  const SolveOutcome out = s.solve(assume);
  ASSERT_EQ(out.result, SatResult::kUnsat);
  EXPECT_FALSE(out.core.empty());
  EXPECT_EQ(out.core, s.failed_assumptions());
  for (const Lit l : out.core) EXPECT_TRUE(contains(assume, l));

  // Re-asserting the core alone must still be UNSAT.
  EXPECT_EQ(s.solve(out.core).result, SatResult::kUnsat);
  // And the engine recovers: the free query is still SAT.
  EXPECT_EQ(s.solve().result, SatResult::kSat);
}

TEST(IncrementalTest, UnmaterializedResultsMatchEngineBuffers) {
  const CnfFormula f = gen::graph_coloring(8, 0.4, 3, 2);  // satisfiable

  Solver owning{SolverOptions{}};
  owning.load(f);
  SolverOptions lean_opts;
  lean_opts.materialize_results = false;
  Solver lean{lean_opts};
  lean.load(f);

  // SAT query: the lean outcome carries no model, but last_model() holds
  // the same assignment the materializing engine hands out by value.
  const SolveOutcome sat_owning = owning.solve();
  const SolveOutcome sat_lean = lean.solve();
  ASSERT_EQ(sat_owning.result, SatResult::kSat);
  ASSERT_EQ(sat_lean.result, SatResult::kSat);
  EXPECT_TRUE(sat_lean.model.empty());
  EXPECT_EQ(sat_owning.model, owning.last_model());
  EXPECT_EQ(lean.last_model(), owning.last_model());

  // UNSAT-under-assumptions query: no owned core, but failed_assumptions()
  // agrees with the materializing engine's copy.
  const std::vector<Lit> assume = {Lit(0, false), Lit(1, false),
                                   Lit(5, false)};
  const SolveOutcome un_owning = owning.solve(assume);
  const SolveOutcome un_lean = lean.solve(assume);
  ASSERT_EQ(un_owning.result, SatResult::kUnsat);
  ASSERT_EQ(un_lean.result, SatResult::kUnsat);
  EXPECT_TRUE(un_lean.core.empty());
  ASSERT_FALSE(un_owning.core.empty());
  EXPECT_EQ(lean.failed_assumptions(), un_owning.core);
  // The engine-owned model buffer re-arms per query: empty after UNSAT.
  EXPECT_TRUE(lean.last_model().empty());

  // And identical trajectories: the lean engine did the same search.
  expect_same_query_stats(un_owning.stats, un_lean.stats, "lean-vs-owning");
}

TEST(IncrementalTest, AddClauseEnumeratesModels) {
  // (x0 v x1) over three variables has 6 models; enumerate them by
  // blocking each found model with add_clause until UNSAT.
  CnfFormula f(3);
  f.add_clause({Lit(0, false), Lit(1, false)});
  Solver s{SolverOptions{}};
  s.load(f);

  int models = 0;
  while (true) {
    const SolveOutcome out = s.solve();
    if (out.result != SatResult::kSat) {
      EXPECT_EQ(out.result, SatResult::kUnsat);
      break;
    }
    ++models;
    ASSERT_TRUE(f.satisfied_by(out.model));
    ASSERT_LE(models, 6) << "enumeration failed to terminate";
    std::vector<Lit> block;
    for (Var v = 0; v < 3; ++v) block.push_back(Lit(v, out.model[v]));
    if (!s.add_clause(block)) break;  // blocking clause emptied at root
  }
  EXPECT_EQ(models, 6);
}

TEST(IncrementalTest, AddClauseCanMakeFormulaUnsat) {
  CnfFormula f(2);
  f.add_clause({Lit(0, false), Lit(1, false)});
  Solver s{SolverOptions{}};
  s.load(f);
  ASSERT_EQ(s.solve().result, SatResult::kSat);
  EXPECT_TRUE(s.add_clause(std::vector<Lit>{Lit(0, true)}));
  EXPECT_TRUE(s.add_clause(std::vector<Lit>{Lit(1, true)}));
  EXPECT_EQ(s.solve().result, SatResult::kUnsat);
  // Once root-inconsistent, further additions report failure (MiniSat
  // addClause semantics) and solving stays UNSAT.
  EXPECT_FALSE(s.add_clause(std::vector<Lit>{Lit(0, false)}));
  EXPECT_EQ(s.solve().result, SatResult::kUnsat);
}

TEST(IncrementalTest, AddClauseRejectsLiteralsOutsideTheFormula) {
  // A refused call must leave the engine untouched: `probed` sees the
  // bad calls, `control` does not, and both then answer identically.
  CnfFormula f(3);
  f.add_clause({Lit(0, false), Lit(1, false)});
  f.add_clause({Lit(0, true), Lit(2, false)});
  Solver probed{SolverOptions{}};
  Solver control{SolverOptions{}};
  probed.load(f);
  control.load(f);
  const SolveOutcome before = probed.solve();
  ASSERT_EQ(before.result, SatResult::kSat);
  ASSERT_EQ(control.solve().result, SatResult::kSat);

  EXPECT_THROW(probed.add_clause(std::vector<Lit>{Lit(40, false),
                                                  Lit(41, true)}),
               std::invalid_argument);
  EXPECT_THROW(probed.add_clause(std::vector<Lit>{Lit(2, false), Lit(3, true)}),
               std::invalid_argument);
  EXPECT_THROW(probed.add_clause(std::vector<Lit>{Lit::undef()}),
               std::invalid_argument);

  const SolveOutcome after = probed.solve();
  const SolveOutcome expected = control.solve();
  EXPECT_EQ(after.result, before.result);
  EXPECT_EQ(after.result, expected.result);
  EXPECT_EQ(after.model, expected.model);
  expect_same_query_stats(after.stats, expected.stats, "refused-vs-control");
  EXPECT_EQ(probed.stats().decisions, control.stats().decisions);
}

TEST(IncrementalTest, AddClauseRefusedWhileProofTracerAttached) {
  // Clauses added after load are outside the traced DRAT input, so the
  // engine refuses them rather than emit a silently wrong proof.
  CnfFormula f(2);
  f.add_clause({Lit(0, false), Lit(1, false)});
  Solver s{SolverOptions{}};
  s.load(f);
  InMemoryProofTracer proof;
  s.set_proof_tracer(&proof);
  ASSERT_EQ(s.solve().result, SatResult::kSat);
  const std::size_t steps = proof.steps().size();
  EXPECT_THROW(s.add_clause(std::vector<Lit>{Lit(0, true)}), std::logic_error);
  EXPECT_EQ(proof.steps().size(), steps);
  // Detaching the tracer lifts the refusal.
  s.set_proof_tracer(nullptr);
  EXPECT_TRUE(s.add_clause(std::vector<Lit>{Lit(0, true)}));
  EXPECT_EQ(s.solve().result, SatResult::kSat);
}

TEST(IncrementalTest, PerQueryBudgetsExhaustAndRecover) {
  const CnfFormula f = gen::pigeonhole(8, 7);
  SolverOptions options;
  options.reduce_interval = 40;
  options.restart_interval = 16;
  Solver s{options};
  s.load(f);

  Solver::Budget tiny;
  tiny.conflicts = 5;
  s.set_budget(tiny);
  const SolveOutcome q1 = s.solve();
  ASSERT_EQ(q1.result, SatResult::kUnknown);
  EXPECT_EQ(q1.why, StopReason::kConflictBudget);
  EXPECT_GE(q1.stats.conflicts, 5u);

  // The budget is per query: a second budgeted call gets a fresh allowance
  // (it must run, not return immediately).
  const SolveOutcome q2 = s.solve();
  ASSERT_EQ(q2.result, SatResult::kUnknown);
  EXPECT_EQ(q2.why, StopReason::kConflictBudget);
  EXPECT_GE(q2.stats.conflicts, 5u);

  // Tick budgets stop too, with their own reason.
  Solver::Budget ticks;
  ticks.ticks = 50;
  s.set_budget(ticks);
  const SolveOutcome q3 = s.solve();
  ASSERT_EQ(q3.result, SatResult::kUnknown);
  EXPECT_EQ(q3.why, StopReason::kTickBudget);

  // Lifting the budget lets the same engine finish the proof.
  s.set_budget(Solver::Budget{});
  const SolveOutcome q4 = s.solve();
  EXPECT_EQ(q4.result, SatResult::kUnsat);
  EXPECT_EQ(q4.why, StopReason::kNone);
}

TEST(IncrementalTest, InterruptStopsAndClears) {
  const CnfFormula f = gen::pigeonhole(8, 7);
  Solver s{SolverOptions{}};
  s.load(f);
  s.interrupt();
  const SolveOutcome stopped = s.solve();
  ASSERT_EQ(stopped.result, SatResult::kUnknown);
  EXPECT_EQ(stopped.why, StopReason::kInterrupted);
  // Sticky until cleared (MiniSat semantics), then the engine recovers.
  EXPECT_EQ(s.solve().result, SatResult::kUnknown);
  s.clear_interrupt();
  EXPECT_EQ(s.solve().result, SatResult::kUnsat);
}

TEST(IncrementalTest, QueryDeltasSumToLifetimeTotals) {
  const CnfFormula f = gen::random_ksat(60, 258, 3, 12);
  SolverOptions options;
  options.reduce_interval = 40;
  options.restart_interval = 16;
  Solver s{options};
  s.load(f);

  Statistics sum;
  std::uint64_t peak_trail = 0;
  for (int q = 0; q < 8; ++q) {
    const SolveOutcome out = s.solve(stream_assumptions(q, f.num_vars()));
    sum += out.stats;
    peak_trail = std::max(peak_trail, out.stats.max_trail);
    EXPECT_EQ(out.stats.queries, 1u);
  }
  EXPECT_EQ(sum.max_trail, peak_trail);
  const Statistics& life = s.stats();
  for (const CounterField& c : kCounterFields) {
    if (c.member == &Statistics::max_trail) continue;
    EXPECT_EQ(sum.*c.member, life.*c.member) << c.name;
  }
  // max_trail is a per-query watermark; the lifetime peak is tracked
  // separately and must dominate every query's peak.
  EXPECT_GE(s.lifetime_max_trail(), peak_trail);
}

TEST(IncrementalTest, SolveHooksSeeQueryBoundaries) {
  struct Recorder final : EngineListener {
    std::vector<std::uint64_t> begins;
    std::vector<std::uint64_t> ends;
    std::vector<SatResult> results;
    std::vector<std::size_t> assumption_counts;
    std::vector<std::uint64_t> end_conflicts;
    void on_solve_begin(std::uint64_t query,
                        std::span<const Lit> assumptions) override {
      begins.push_back(query);
      assumption_counts.push_back(assumptions.size());
    }
    void on_solve_end(std::uint64_t query, SatResult result,
                      const Statistics& query_stats) override {
      ends.push_back(query);
      results.push_back(result);
      end_conflicts.push_back(query_stats.conflicts);
    }
  };

  const CnfFormula f = gen::graph_coloring(8, 0.4, 3, 2);
  Solver s{SolverOptions{}};
  Recorder rec;
  s.set_listener(&rec);
  s.load(f);

  const SolveOutcome q1 = s.solve();
  const std::vector<Lit> assume = {Lit(0, false), Lit(1, false)};
  const SolveOutcome q2 = s.solve(assume);

  ASSERT_EQ(rec.begins, (std::vector<std::uint64_t>{1, 2}));
  ASSERT_EQ(rec.ends, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(rec.assumption_counts,
            (std::vector<std::size_t>{0, assume.size()}));
  EXPECT_EQ(rec.results[0], q1.result);
  EXPECT_EQ(rec.results[1], q2.result);
  // The hook sees the same per-query delta the caller receives.
  EXPECT_EQ(rec.end_conflicts[0], q1.stats.conflicts);
  EXPECT_EQ(rec.end_conflicts[1], q2.stats.conflicts);
}

TEST(IncrementalTest, SingleShotDeltaEqualsLifetime) {
  // The compatibility contract behind the golden differential suite: for
  // the first query after load, the per-query delta IS the lifetime
  // counter set (the baseline snapshot is all-zero).
  const CnfFormula f = gen::pigeonhole(7, 6);
  SolverOptions options;
  options.reduce_interval = 40;
  options.restart_interval = 16;
  Solver s{options};
  s.load(f);
  const SolveOutcome out = s.solve();
  ASSERT_EQ(out.result, SatResult::kUnsat);
  expect_same_query_stats(out.stats, s.stats(), "single-shot");
}

}  // namespace
}  // namespace ns::solver
