#pragma once
/// \file reduce.hpp
/// The clause-database reduction subsystem: the reduce schedule, the
/// scoring of learned clauses under `SolverOptions::deletion_policy` (the
/// paper's contribution point, see policy/deletion_policy.hpp), and the
/// garbage-collection pass — deleting the worst fraction, compacting the
/// arena, remapping reasons, and rebuilding the watch lists.

#include <cstdint>

#include "solver/context.hpp"
#include "solver/propagate.hpp"

namespace ns::solver {

class ReduceScheduler {
 public:
  explicit ReduceScheduler(SearchContext& ctx) : ctx_(ctx) {}

  /// Re-initializes the schedule (solver reload).
  void reset() { next_reduce_conflicts_ = ctx_.options->reduce_interval; }

  bool should_reduce() const {
    return ctx_.stats.conflicts >= next_reduce_conflicts_;
  }

  /// Runs one reduction pass; `propagator` rebuilds its watch lists after
  /// the arena compaction moved clauses.
  void reduce(Propagator& propagator);

 private:
  SearchContext& ctx_;
  std::uint64_t next_reduce_conflicts_ = 0;
};

}  // namespace ns::solver
