#include "solver/decide.hpp"

#include <cassert>

namespace ns::solver {

void Decider::reset(std::size_t num_vars) {
  activity_.assign(num_vars, 0.0);
  var_inc_ = 1.0;
  heap_.clear();
  for (Var v = 0; v < num_vars; ++v) heap_.insert(v);
  phase_.assign(num_vars, 0);
  vmtf_init();
}

void Decider::vmtf_init() {
  const std::size_t n = ctx_.num_vars;
  vmtf_prev_.assign(n, kNoVar);
  vmtf_next_.assign(n, kNoVar);
  vmtf_stamp_.assign(n, 0);
  vmtf_time_ = 0;
  vmtf_front_ = kNoVar;
  vmtf_search_ = kNoVar;
  if (n == 0) return;
  // Build the queue with variable 0 at the back and n-1 at the front; the
  // front is the "most recently used" end.
  for (Var v = 0; v < n; ++v) {
    vmtf_stamp_[v] = ++vmtf_time_;
    if (vmtf_front_ != kNoVar) {
      vmtf_prev_[vmtf_front_] = v;
      vmtf_next_[v] = vmtf_front_;
    }
    vmtf_front_ = v;
  }
  vmtf_search_ = vmtf_front_;
}

void Decider::vmtf_move_to_front(Var v) {
  if (vmtf_front_ == v) {
    vmtf_stamp_[v] = ++vmtf_time_;
    return;
  }
  // Unlink.
  const Var p = vmtf_prev_[v];
  const Var n = vmtf_next_[v];
  if (p != kNoVar) vmtf_next_[p] = n;
  if (n != kNoVar) vmtf_prev_[n] = p;
  if (vmtf_search_ == v) vmtf_search_ = (p != kNoVar) ? p : vmtf_front_;
  // Relink at front.
  vmtf_prev_[v] = kNoVar;
  vmtf_next_[v] = vmtf_front_;
  vmtf_prev_[vmtf_front_] = v;
  vmtf_front_ = v;
  vmtf_stamp_[v] = ++vmtf_time_;
  if (ctx_.trail.value(v) == LBool::kUndef) vmtf_search_ = v;
}

Var Decider::vmtf_pick() {
  Var v = vmtf_search_;
  while (v != kNoVar && ctx_.trail.value(v) != LBool::kUndef) {
    ++ctx_.stats.decide_ticks;
    v = vmtf_next_[v];
  }
  assert(v != kNoVar);
  vmtf_search_ = v;
  return v;
}

void Decider::bump(Var v) {
  if (ctx_.options->decision_mode == DecisionMode::kVmtf) {
    vmtf_move_to_front(v);
    return;
  }
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  heap_.increased(v);
}

void Decider::decay() {
  if (ctx_.options->decision_mode == DecisionMode::kVmtf) return;
  var_inc_ /= ctx_.options->var_decay;
}

void Decider::on_unassign(Var v, LBool erased_value) {
  phase_[v] = erased_value == LBool::kTrue ? 1 : 0;
  if (ctx_.options->decision_mode == DecisionMode::kVmtf) {
    if (vmtf_stamp_[v] > vmtf_stamp_[vmtf_search_]) vmtf_search_ = v;
  } else {
    heap_.insert(v);
  }
}

// NS_HOT(runs once per decision; VSIDS/VMTF heap operations dominate)
Lit Decider::pick() {
  Var v = kNoVar;
  if (ctx_.options->decision_mode == DecisionMode::kVmtf) {
    v = vmtf_pick();
  } else {
    while (true) {
      assert(!heap_.empty());
      ++ctx_.stats.decide_ticks;
      v = heap_.pop();
      if (ctx_.trail.value(v) == LBool::kUndef) break;
    }
  }
  return Lit(v, phase_[v] == 0);  // saved phase; initial phase = false
}

}  // namespace ns::solver
