#pragma once
/// \file tape.hpp
/// Eager-style facade over the program/executor split.
///
/// `Tape` keeps the recording API the models were written against, but it
/// no longer computes anything while recording: every op appends one
/// instruction to an owned `Program` (program.hpp). The first `value()`,
/// `grad()` or `backward()` call materializes a training-mode `Executor`
/// (executor.hpp), runs the forward pass, and caches it until further
/// recording invalidates the results. A training step is still:
/// build tape → forward → backward → optimizer step → discard tape — but
/// the tape (really its program) can now also be kept and re-executed on
/// fresh parameter values, which is what the trainer's per-instance
/// compilation cache and the models' `InferenceSession` do.
///
/// Semantics differences from the old eager tape, both deliberate:
///  - `param(p)` binds `p` live instead of copying `p->value` at record
///    time: executions read the parameter as it is when they run.
///  - Constants and nodes with no Parameter upstream get no gradient
///    storage; `grad()` on them throws instead of returning silent zeros.
/// Forward values and parameter gradients are bitwise identical to the
/// eager implementation.

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/executor.hpp"
#include "nn/matrix.hpp"
#include "nn/program.hpp"
#include "nn/sparse.hpp"

namespace ns::nn {

/// Records one forward computation and executes it on demand.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // --- leaves ---------------------------------------------------------
  /// Constant input (no gradient storage is ever attached to it).
  TensorId constant(Matrix value) { return rec(prog_.constant(std::move(value))); }

  /// Leaf bound to a Parameter: backward() adds into `p->grad`. The
  /// binding is live — executions read `p->value` at execution time.
  TensorId param(Parameter* p) { return rec(prog_.param(p)); }

  // --- dense algebra -----------------------------------------------------
  TensorId matmul(TensorId a, TensorId b) { return rec(prog_.matmul(a, b)); }
  TensorId matmul_at_b(TensorId a, TensorId b) {
    return rec(prog_.matmul_at_b(a, b));
  }
  TensorId add(TensorId a, TensorId b) { return rec(prog_.add(a, b)); }
  TensorId sub(TensorId a, TensorId b) { return rec(prog_.sub(a, b)); }
  TensorId hadamard(TensorId a, TensorId b) {
    return rec(prog_.hadamard(a, b));
  }
  TensorId add_scalar(TensorId a, float s) {
    return rec(prog_.add_scalar(a, s));
  }
  TensorId reciprocal(TensorId a) { return rec(prog_.reciprocal(a)); }

  // --- activations ------------------------------------------------------
  TensorId relu(TensorId a) { return rec(prog_.relu(a)); }
  TensorId sigmoid(TensorId a) { return rec(prog_.sigmoid(a)); }
  TensorId tanh_fn(TensorId a) { return rec(prog_.tanh_fn(a)); }

  // --- graph / structure ops ---------------------------------------------
  TensorId spmm(const SparseMatrix* s, TensorId x) {
    return rec(prog_.spmm(s, x));
  }
  TensorId frobenius_normalize(TensorId a) {
    return rec(prog_.frobenius_normalize(a));
  }
  TensorId add_row_broadcast(TensorId x, TensorId bias_row) {
    return rec(prog_.add_row_broadcast(x, bias_row));
  }
  TensorId broadcast_row(TensorId row, std::size_t n) {
    return rec(prog_.broadcast_row(row, n));
  }
  TensorId row_mul(TensorId x, TensorId s) { return rec(prog_.row_mul(x, s)); }
  TensorId scalar_mul(TensorId x, TensorId s) {
    return rec(prog_.scalar_mul(x, s));
  }
  TensorId mean_rows(TensorId a) { return rec(prog_.mean_rows(a)); }
  TensorId concat_cols(TensorId a, TensorId b) {
    return rec(prog_.concat_cols(a, b));
  }
  TensorId slice_cols(TensorId a, std::size_t start, std::size_t len) {
    return rec(prog_.slice_cols(a, start, len));
  }
  TensorId permute_rows(TensorId a, std::vector<std::uint32_t> perm) {
    return rec(prog_.permute_rows(a, std::move(perm)));
  }

  // --- losses -----------------------------------------------------------
  TensorId bce_with_logits(TensorId logit, float target,
                           float pos_weight = 1.0f) {
    return rec(prog_.bce_with_logits(logit, target, pos_weight));
  }

  // --- execution ---------------------------------------------------------
  /// Forward value; (re)executes the recorded program if needed.
  const Matrix& value(TensorId id) const {
    ensure_forward();
    return exec_->value(id);
  }

  /// Gradient buffer of a `requires_grad` node (zeros until backward()).
  /// Throws `std::logic_error` for constants and other gradient-free nodes.
  const Matrix& grad(TensorId id) const {
    ensure_forward();
    return exec_->grad(id);
  }

  /// Runs reverse-mode accumulation from `loss` (any shape; seeded with 1s)
  /// and adds leaf gradients into their bound Parameters.
  void backward(TensorId loss) {
    ensure_forward();
    exec_->backward(loss);
  }

  std::size_t num_nodes() const { return prog_.num_insts(); }

  /// Shape of a recorded node, available without executing (use these
  /// instead of `value(id).rows()` while still recording).
  std::size_t rows(TensorId id) const { return prog_.rows(id); }
  std::size_t cols(TensorId id) const { return prog_.cols(id); }

  /// The recorded program — hand it to an `Executor` (e.g. in
  /// `ExecMode::kInference`) to re-run it outside the tape.
  const Program& program() const { return prog_; }

 private:
  TensorId rec(TensorId id) {
    dirty_ = true;
    return id;
  }

  void ensure_forward() const {
    if (dirty_ || !exec_) {
      exec_ = std::make_unique<Executor>(prog_, ExecMode::kTraining);
      exec_->forward();
      dirty_ = false;
    }
  }

  Program prog_;
  mutable std::unique_ptr<Executor> exec_;
  mutable bool dirty_ = true;
};

}  // namespace ns::nn
