#pragma once
/// \file trajectory_corpus.hpp
/// The differential-trajectory corpus: a fixed grid of generated instances
/// x solver configurations used to pin the engine's search trajectory.
/// `tests/golden_trajectory.inc` holds the Statistics the seed engine
/// produced on this grid; test_solver_differential asserts the current
/// engine reproduces every counter exactly, and gen_trajectory_golden
/// regenerates the table (only legitimate after an intentional
/// trajectory-changing PR).

#include <cstddef>
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "solver/solver.hpp"

namespace ns::testing {

inline std::vector<std::pair<std::string, CnfFormula>> trajectory_instances() {
  std::vector<std::pair<std::string, CnfFormula>> out;
  out.emplace_back("php_7_6", gen::pigeonhole(7, 6));
  out.emplace_back("php_8_7", gen::pigeonhole(8, 7));
  out.emplace_back("ksat_60_258_s11", gen::random_ksat(60, 258, 3, 11));
  out.emplace_back("ksat_60_258_s12", gen::random_ksat(60, 258, 3, 12));
  out.emplace_back("ksat_90_385_s13", gen::random_ksat(90, 385, 3, 13));
  out.emplace_back("xor_120_sat", gen::xor_chain(120, false, 5));
  out.emplace_back("xor_120_unsat", gen::xor_chain(120, true, 5));
  out.emplace_back("adder_5", gen::adder_equivalence(5, false, 1));
  out.emplace_back("color_30_3", gen::graph_coloring(30, 0.3, 3, 7));
  out.emplace_back("community_80", gen::community_sat(80, 340, 4, 0.8, 9));
  return out;
}

inline std::vector<std::pair<std::string, solver::SolverOptions>>
trajectory_configs() {
  using solver::DecisionMode;
  using solver::RestartMode;
  std::vector<std::pair<std::string, solver::SolverOptions>> out;

  solver::SolverOptions base;
  base.reduce_interval = 40;   // force several reductions per solve
  base.restart_interval = 16;  // and several restarts

  out.emplace_back("evsids_ema_default", base);
  {
    solver::SolverOptions o = base;
    o.decision_mode = DecisionMode::kEvsids;
    o.restart_mode = RestartMode::kLuby;
    o.deletion_policy = policy::PolicyKind::kFrequency;
    out.emplace_back("evsids_luby_frequency", o);
  }
  {
    solver::SolverOptions o = base;
    o.decision_mode = DecisionMode::kVmtf;
    o.restart_mode = RestartMode::kLuby;
    out.emplace_back("vmtf_luby_default", o);
  }
  {
    solver::SolverOptions o = base;
    o.decision_mode = DecisionMode::kVmtf;
    o.deletion_policy = policy::PolicyKind::kFrequency;
    out.emplace_back("vmtf_ema_frequency", o);
  }
  {
    solver::SolverOptions o = base;
    o.preprocess = true;
    out.emplace_back("evsids_ema_preprocess", o);
  }
  return out;
}

/// One golden row: indices into the grids above plus the full counter set.
struct TrajectoryGolden {
  std::size_t instance;
  std::size_t config;
  std::uint64_t decisions;
  std::uint64_t propagations;
  std::uint64_t ticks;
  std::uint64_t conflicts;
  std::uint64_t restarts;
  std::uint64_t reductions;
  std::uint64_t learned_clauses;
  std::uint64_t learned_literals;
  std::uint64_t deleted_clauses;
  std::uint64_t minimized_literals;
  std::uint64_t max_trail;
};

}  // namespace ns::testing
