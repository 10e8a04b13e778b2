/// Behavioural tests of solver options: every knob must actually change
/// what the engine does (guards against silently dead options).

#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "solver/solver.hpp"

namespace ns::solver {
namespace {

Statistics run(const CnfFormula& f, const SolverOptions& opts) {
  return solve_formula(f, opts).stats;
}

TEST(OptionsTest, RestartModesDiffer) {
  const CnfFormula f = gen::scramble(gen::pigeonhole(9, 8), 3);
  SolverOptions ema;
  ema.restart_mode = RestartMode::kGlucoseEma;
  SolverOptions luby;
  luby.restart_mode = RestartMode::kLuby;
  luby.restart_interval = 32;

  const Statistics s_ema = run(f, ema);
  const Statistics s_luby = run(f, luby);
  EXPECT_GT(s_ema.restarts, 0u);
  EXPECT_GT(s_luby.restarts, 0u);
  EXPECT_NE(s_ema.restarts, s_luby.restarts);
  EXPECT_NE(s_ema.propagations, s_luby.propagations);
}

TEST(OptionsTest, DecisionModesBothSolveButDiffer) {
  const CnfFormula f = gen::random_ksat(60, 255, 3, 9);
  SolverOptions evsids;
  evsids.decision_mode = DecisionMode::kEvsids;
  SolverOptions vmtf;
  vmtf.decision_mode = DecisionMode::kVmtf;
  const SolveOutcome a = solve_formula(f, evsids);
  const SolveOutcome b = solve_formula(f, vmtf);
  EXPECT_EQ(a.result, b.result);
  // Heuristics differ, so the search trace should too.
  EXPECT_NE(a.stats.decisions, b.stats.decisions);
}

TEST(OptionsTest, FrequencyAlphaChangesDeletionBehaviour) {
  // With alpha = 0 every variable with f_v > 0 is "hot"; with alpha close
  // to 1 almost none is. The retention ordering, and hence the search,
  // should differ on a reduction-heavy instance.
  const CnfFormula f = gen::scramble(gen::pigeonhole(9, 8), 5);
  SolverOptions lo;
  lo.deletion_policy = policy::PolicyKind::kFrequency;
  lo.frequency_alpha = 0.0;
  SolverOptions hi = lo;
  hi.frequency_alpha = 0.99;
  const Statistics a = run(f, lo);
  const Statistics b = run(f, hi);
  EXPECT_NE(a.propagations, b.propagations);
}

TEST(OptionsTest, ReduceFractionZeroDeletesNothing) {
  SolverOptions opts;
  opts.reduce_fraction = 0.0;
  opts.reduce_interval = 20;
  const CnfFormula f = gen::scramble(gen::pigeonhole(8, 7), 1);
  const Statistics s = run(f, opts);
  EXPECT_GT(s.reductions, 0u);
  EXPECT_EQ(s.deleted_clauses, 0u);
}

TEST(OptionsTest, KeepGlueHugeProtectsEverything) {
  SolverOptions opts;
  opts.keep_glue = 1'000'000;  // every learned clause is "core"
  opts.reduce_interval = 20;
  const CnfFormula f = gen::scramble(gen::pigeonhole(8, 7), 1);
  const Statistics s = run(f, opts);
  EXPECT_EQ(s.deleted_clauses, 0u);
}

TEST(OptionsTest, VarDecayShapesEvsidsOnly) {
  // EVSIDS divides its bump increment by var_decay every conflict, so the
  // decay rate reorders the heap; VMTF ignores activities, so there the
  // two rates must leave every counter equal.
  const CnfFormula f = gen::random_ksat(60, 255, 3, 9);
  SolverOptions slow;
  slow.var_decay = 0.95;
  SolverOptions fast = slow;
  fast.var_decay = 0.9;
  EXPECT_NE(run(f, slow).decisions, run(f, fast).decisions);

  slow.decision_mode = DecisionMode::kVmtf;
  fast.decision_mode = DecisionMode::kVmtf;
  const Statistics a = run(f, slow);
  const Statistics b = run(f, fast);
  for (const CounterField& c : kCounterFields) {
    EXPECT_EQ(a.*c.member, b.*c.member) << c.name;
  }
}

TEST(OptionsTest, ProxySecondsScalesWithTicks) {
  Statistics s;
  s.ticks = 200'000;
  EXPECT_DOUBLE_EQ(s.proxy_seconds(), 2.0);
}

TEST(OptionsTest, DeterministicAcrossRuns) {
  const CnfFormula f = gen::random_ksat(50, 212, 3, 4);
  SolverOptions opts;
  const Statistics a = run(f, opts);
  const Statistics b = run(f, opts);
  EXPECT_EQ(a.propagations, b.propagations);
  EXPECT_EQ(a.conflicts, b.conflicts);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.ticks, b.ticks);
}

}  // namespace
}  // namespace ns::solver
