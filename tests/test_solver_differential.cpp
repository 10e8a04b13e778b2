/// \file test_solver_differential.cpp
/// Differential trajectory suite: the engine must reproduce, counter for
/// counter, the Statistics the seed (pre-refactor) engine produced on a
/// fixed grid of instances x configurations. This pins the entire search
/// trajectory — any change to visit order, heuristic state, float op
/// order, or RNG consumption shows up as a counter mismatch here long
/// before it would surface as a wrong SAT/UNSAT answer. Every grid point
/// runs twice, bare and with the invariant auditor attached: the audits
/// must pass and leave every counter where the golden table has it.

#include <gtest/gtest.h>

#include <vector>

#include "audit/solver_audit.hpp"
#include "trajectory_corpus.hpp"

namespace ns::testing {
namespace {

const TrajectoryGolden kGolden[] = {
#include "golden_trajectory.inc"
};

class TrajectoryTest : public ::testing::TestWithParam<TrajectoryGolden> {};

void expect_golden(const solver::Statistics& s, const TrajectoryGolden& g) {
  EXPECT_EQ(s.decisions, g.decisions);
  EXPECT_EQ(s.propagations, g.propagations);
  EXPECT_EQ(s.ticks, g.ticks);
  EXPECT_EQ(s.conflicts, g.conflicts);
  EXPECT_EQ(s.restarts, g.restarts);
  EXPECT_EQ(s.reductions, g.reductions);
  EXPECT_EQ(s.learned_clauses, g.learned_clauses);
  EXPECT_EQ(s.learned_literals, g.learned_literals);
  EXPECT_EQ(s.deleted_clauses, g.deleted_clauses);
  EXPECT_EQ(s.minimized_literals, g.minimized_literals);
  EXPECT_EQ(s.max_trail, g.max_trail);

  // Consistency of the new split counters: every watch visit is binary or
  // long, and every BCP enqueue comes from one of the two clause classes
  // (plus root-level units, which come from no watch list).
  EXPECT_EQ(s.ticks_binary + s.ticks_long, s.ticks);
  EXPECT_LE(s.propagations_binary + s.propagations_long, s.propagations);
}

TEST_P(TrajectoryTest, MatchesSeedEngineExactly) {
  const TrajectoryGolden g = GetParam();
  const auto instances = trajectory_instances();
  const auto configs = trajectory_configs();
  ASSERT_LT(g.instance, instances.size());
  ASSERT_LT(g.config, configs.size());
  const CnfFormula& f = instances[g.instance].second;
  const solver::SolverOptions& options = configs[g.config].second;

  {
    SCOPED_TRACE("bare");
    expect_golden(solver::solve_formula(f, options).stats, g);
  }
  SCOPED_TRACE("audited");
  solver::Solver s(options);
  audit::RuntimeAuditor auditor(s.context(), s.propagator(), s.decider());
  s.set_listener(&auditor);
  s.load(f);
  expect_golden(s.solve().stats, g);
}

std::string trajectory_name(
    const ::testing::TestParamInfo<TrajectoryGolden>& info) {
  const auto instances = trajectory_instances();
  const auto configs = trajectory_configs();
  return instances[info.param.instance].first + "__" +
         configs[info.param.config].first;
}

INSTANTIATE_TEST_SUITE_P(FullGrid, TrajectoryTest,
                         ::testing::ValuesIn(kGolden), trajectory_name);

}  // namespace
}  // namespace ns::testing
