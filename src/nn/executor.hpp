#pragma once
/// \file executor.hpp
/// The executing half of the NN stack's program/executor split.
///
/// An `Executor` runs a recorded `Program` forward (and, in training mode,
/// backward) against a liveness-planned workspace. At construction it
/// analyses each intermediate's last use and assigns arena slots so that
/// buffers are reused across non-overlapping live ranges; every slot is
/// reserved to the maximum capacity it will ever need, so steady-state
/// execution performs zero heap allocations. Leaves are never copied: a
/// `kConstant` node reads the program's literal pool and a `kParam` node
/// reads `Parameter::value` live, which makes one recording re-runnable
/// across optimizer steps.
///
/// Two modes:
///  - `kTraining`: every node's value stays live to the end (the backward
///    pass reads them) and gradient buffers are allocated lazily, on the
///    first `backward()`/`grad()` call, and only for nodes on a path from a
///    `Parameter` (`requires_grad`). Constants never get gradient storage.
///  - `kInference`: value buffers are reused as soon as their last consumer
///    has run and no gradient storage exists at all; `backward()` throws.
///
/// Forward values and parameter gradients are bitwise identical to the
/// seed eager tape (tests/eager_reference.hpp): every op replays the same
/// per-element float operation order on the same threaded kernels.

#include <cstdint>
#include <vector>

#include "nn/program.hpp"

namespace ns::nn {

/// What an Executor is allowed to compute (and therefore must store).
enum class ExecMode : std::uint8_t {
  kTraining,   ///< all values live to the end; gradients on demand
  kInference,  ///< liveness-planned buffer reuse; no gradient storage
};

/// Value snapshot of an Executor's workspace plan, for external audit
/// (audit::verify_workspace_plan). A copy, not a view: fault-injection
/// tests corrupt snapshots freely without touching the live executor.
struct WorkspacePlan {
  ExecMode mode = ExecMode::kInference;
  std::vector<std::int32_t> slot_of;        ///< per inst; -1 for leaves
  std::vector<std::int32_t> last_use;       ///< per inst; num_insts() = end
  std::vector<std::size_t> slot_capacity;   ///< per arena slot, in floats
};

/// Runs one Program against a planned workspace. The program (and every
/// Parameter / SparseMatrix it binds) must outlive the executor. The plan
/// covers the instructions recorded when the executor was built: recording
/// more onto the program afterwards is allowed, but the executor never runs
/// the new nodes, and `value`, `grad`, `has_grad` and `backward` throw
/// `std::logic_error` for them (build a new executor to run them). One
/// executor is single-threaded at the call level (the kernels underneath
/// still use the global pool); use one executor per concurrent caller.
class Executor {
 public:
  Executor(const Program& prog, ExecMode mode);
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Executes every planned instruction in order. Re-runnable: each call
  /// reads the bound parameters' current values. After the warm-up in the
  /// constructor, calls allocate nothing (with a single-thread pool; the
  /// pool dispatch itself may allocate when fanning out).
  void forward();

  /// Reverse-mode accumulation from `loss` (seeded with ones), adding leaf
  /// gradients into their bound Parameters — exactly the eager tape's
  /// semantics. Runs `forward()` first if it has not run yet. Throws
  /// `std::logic_error` in inference mode.
  void backward(TensorId loss);

  /// Value of a node after `forward()`. In inference mode only nodes that
  /// are live at the end of the program (the outputs) may be read; asking
  /// for a recycled intermediate throws `std::logic_error`.
  const Matrix& value(TensorId id) const;

  /// Gradient buffer of a `requires_grad` node (zeros before the first
  /// `backward()`). Throws `std::logic_error` for nodes without gradient
  /// storage: constants, anything not on a path from a Parameter, and every
  /// node of an inference executor.
  const Matrix& grad(TensorId id);

  /// Whether `grad(id)` would succeed.
  bool has_grad(TensorId id) const;

  ExecMode mode() const { return mode_; }

  /// Total float capacity reserved across all arena slots. In inference
  /// mode this is the planner's payoff: strictly less than
  /// `Program::total_value_elements()` whenever any live ranges are
  /// disjoint.
  std::size_t workspace_elements() const;

  /// Number of distinct arena buffers the planner allocated.
  std::size_t workspace_buffers() const;

  /// Copies the liveness/slot tables for audit::verify_workspace_plan.
  WorkspacePlan plan_snapshot() const;

 private:
  void plan();
  void allocate_grads();

  /// Number of instructions the plan covers (the program's size at
  /// construction).
  std::int32_t num_planned() const {
    return static_cast<std::int32_t>(last_use_.size());
  }

  /// Instruction behind `id`; throws `std::logic_error` naming `fn` when the
  /// node was recorded after planning.
  const Inst& planned_at(const char* fn, TensorId id) const;

  /// Value of instruction `i` (leaf pools or the node's arena slot).
  const Matrix& value_of(std::int32_t i) const;

  /// The arena buffer owned by compute node `i`, reshaped for writing.
  Matrix& out_of(std::int32_t i);

  const Program* prog_;
  ExecMode mode_;
  std::vector<std::int32_t> slot_of_;   ///< per inst; -1 for leaves
  std::vector<std::int32_t> last_use_;  ///< per inst; num_insts() = live at end
  std::vector<Matrix> slots_;           ///< arena, reserved to planned capacity
  std::vector<Matrix> grads_;           ///< lazily sized; empty unless requires_grad
  bool grads_allocated_ = false;
  bool ran_forward_ = false;
};

}  // namespace ns::nn
