#pragma once
/// \file trail.hpp
/// The assignment trail: per-literal values, per-variable level/reason, plus
/// the stack of assignments in chronological order and the decision-level
/// frames over it. This is the ground truth every other subsystem reads; only
/// `SearchContext::enqueue` (assign) and the solver's backtrack path
/// (shrink_to_level) mutate it.

#include <cassert>
#include <cstdint>
#include <vector>

#include "cnf/types.hpp"
#include "solver/clause_db.hpp"

namespace ns::solver {

class Trail {
 public:
  void reset(std::size_t num_vars) {
    values_.assign(2 * num_vars, LBool::kUndef);
    level_.assign(num_vars, 0);
    reason_.assign(num_vars, kInvalidClause);
    trail_.clear();
    trail_.reserve(num_vars);
    lim_.clear();
    qhead = 0;
    assumption_levels = 0;
  }

  // --- assignment queries ----------------------------------------------
  LBool value(Lit l) const { return values_[l.code()]; }
  LBool value(Var v) const { return values_[Lit(v, false).code()]; }

  /// Raw value array for the BCP inner loop, indexed by `Lit::code()`: a
  /// literal's value is `values_data()[l.code()]`, one load with no sign
  /// branch. The array is sized once at reset(), so the pointer stays valid
  /// across assignments; caching it in a local spares the loop two
  /// dependent pointer loads per lookup.
  const LBool* values_data() const { return values_.data(); }
  std::uint32_t level(Var v) const { return level_[v]; }
  ClauseRef reason(Var v) const { return reason_[v]; }
  void set_reason(Var v, ClauseRef r) { reason_[v] = r; }

  // --- stack structure ---------------------------------------------------
  std::uint32_t decision_level() const {
    return static_cast<std::uint32_t>(lim_.size());
  }
  std::size_t size() const { return trail_.size(); }
  Lit operator[](std::size_t i) const { return trail_[i]; }

  /// First trail index of decision level `lvl + 1` (i.e. lim_[lvl]).
  std::size_t level_begin(std::uint32_t lvl) const { return lim_[lvl]; }

  /// Opens a new decision level at the current trail height.
  void push_level() { lim_.push_back(trail_.size()); }

  /// Records the assignment making `l` true at the current decision level.
  void assign(Lit l, ClauseRef reason) {
    const Var v = l.var();
    assert(values_[l.code()] == LBool::kUndef);
    values_[l.code()] = LBool::kTrue;
    values_[(~l).code()] = LBool::kFalse;
    level_[v] = decision_level();
    reason_[v] = reason;
    // NS_SUPPRESS(allocation): trail_ is reserved for num_vars at reset()
    // and can never hold more than one entry per variable, so push_back
    // never reallocates.
    trail_.push_back(l);
  }

  /// Unwinds to `target_level`, invoking `on_unassign(Lit, LBool)` for each
  /// popped assignment (most recent first; the LBool is the value being
  /// erased, for phase saving) before clearing it. Resets qhead to the kept
  /// prefix.
  template <typename Fn>
  void shrink_to_level(std::uint32_t target_level, Fn&& on_unassign) {
    if (decision_level() <= target_level) return;
    const std::size_t keep = lim_[target_level];
    for (std::size_t i = trail_.size(); i-- > keep;) {
      const Lit l = trail_[i];
      const Var v = l.var();
      on_unassign(l, value(v));
      values_[l.code()] = LBool::kUndef;
      values_[(~l).code()] = LBool::kUndef;
      reason_[v] = kInvalidClause;
    }
    trail_.resize(keep);
    lim_.resize(target_level);
    qhead = keep;
  }

  /// Index of the next literal BCP has not yet propagated.
  std::size_t qhead = 0;

  /// Number of leading decision levels holding the current query's
  /// assumptions (dummy levels for already-true assumptions included).
  /// Maintained by the solver: set while asserting assumptions, clamped by
  /// every backtrack. Restarts unwind to this prefix instead of level 0, so
  /// assumption assignments survive restarts within one query.
  std::uint32_t assumption_levels = 0;

  /// Mutable internals for ns::audit fault-injection tests only — lets a
  /// test corrupt values/levels/frames in ways no engine path can, to prove
  /// the auditor catches them. Production code must never use this.
  struct DebugAccess {
    std::vector<LBool>* values;  ///< indexed by Lit::code(), like values_
    std::vector<std::uint32_t>* level;
    std::vector<ClauseRef>* reason;
    std::vector<Lit>* trail;
    std::vector<std::size_t>* lim;
  };
  DebugAccess debug_access() {
    return {&values_, &level_, &reason_, &trail_, &lim_};
  }

 private:
  std::vector<LBool> values_;          ///< per literal code (2 * num_vars)
  std::vector<std::uint32_t> level_;   ///< per var
  std::vector<ClauseRef> reason_;      ///< per var
  std::vector<Lit> trail_;             ///< assignments, oldest first
  std::vector<std::size_t> lim_;       ///< trail height at each decision
};

}  // namespace ns::solver
