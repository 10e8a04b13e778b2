#pragma once
/// \file decide.hpp
/// The decision subsystem: picks branch literals. Owns both decision
/// heuristics — the EVSIDS activity heap and the VMTF move-to-front queue
/// (selected by SolverOptions::decision_mode) — plus phase saving.
/// Conflict analysis feeds it variable bumps; backtracking feeds it
/// unassignments.

#include <cstdint>
#include <vector>

#include "cnf/types.hpp"
#include "solver/context.hpp"
#include "solver/heap.hpp"

namespace ns::solver {

class Decider {
 public:
  explicit Decider(SearchContext& ctx) : ctx_(ctx), heap_(activity_) {}

  /// Re-initializes for `num_vars` variables (solver reload).
  void reset(std::size_t num_vars);

  /// Credits `v` for a conflict (EVSIDS bump or VMTF move-to-front).
  void bump(Var v);

  /// Per-conflict activity decay (EVSIDS only).
  void decay();

  /// Restores bookkeeping for a variable popped off the trail: saves its
  /// phase and re-enters it into the active heuristic structure.
  void on_unassign(Var v, LBool erased_value);

  /// Picks the next branch literal (saved phase applied). Requires at
  /// least one unassigned variable.
  Lit pick();

  /// Read-only view of the heuristic structures for ns::audit. Pointers
  /// stay valid while the Decider lives; the two Var fields are copies.
  struct AuditView {
    const std::vector<double>* activity = nullptr;
    const VarHeap* heap = nullptr;
    const std::vector<Var>* vmtf_prev = nullptr;
    const std::vector<Var>* vmtf_next = nullptr;
    const std::vector<std::uint64_t>* vmtf_stamp = nullptr;
    Var vmtf_front = kNoVar;
    Var vmtf_search = kNoVar;
  };
  AuditView audit_view() const {
    return {&activity_,   &heap_,      &vmtf_prev_, &vmtf_next_,
            &vmtf_stamp_, vmtf_front_, vmtf_search_};
  }

 private:
  void vmtf_init();
  void vmtf_move_to_front(Var v);
  Var vmtf_pick();

  SearchContext& ctx_;

  // EVSIDS
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  VarHeap heap_;

  // phase saving
  std::vector<std::uint8_t> phase_;  ///< saved phase: 1 = last value true

  // VMTF
  std::vector<Var> vmtf_prev_, vmtf_next_;
  std::vector<std::uint64_t> vmtf_stamp_;
  std::uint64_t vmtf_time_ = 0;
  Var vmtf_front_ = kNoVar;
  Var vmtf_search_ = kNoVar;
};

}  // namespace ns::solver
