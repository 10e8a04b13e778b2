#pragma once
/// \file program.hpp
/// The recorded half of the NN stack's program/executor split.
///
/// A `Program` is a flat, op-coded instruction list: each node is an
/// `Inst` carrying an opcode, operand indices, the inferred output shape,
/// and any immediates (scalars, slice bounds, a permutation-pool index, a
/// `Parameter*` or `SparseMatrix*` binding). Recording performs full shape
/// inference and validation — a mismatched matmul or concat is an
/// `std::invalid_argument` at recording time, not UB at execution time,
/// and leaves the program unchanged — and tracks `requires_grad` per node
/// so executors can skip gradient storage for constants and for every node
/// in inference-only runs.
///
/// A recorded program holds no computed values and no `std::function`
/// closures. It is re-runnable: parameter leaves bind the live
/// `Parameter::value`, so executing the same program after an optimizer
/// step (or after writing new data into a bound parameter) sees the fresh
/// inputs. Execution lives in `Executor` (executor.hpp), and
/// `audit::verify_program` re-checks a recording independently.
///
/// The op set is exactly what the paper's models need: dense/sparse matrix
/// products, elementwise arithmetic and activations, row scaling (the D⁻¹
/// of Eq. 9), broadcasting, slicing/concatenation (LSTM gates), row
/// permutation (the literal-flip of NeuroSAT), a numerically stable
/// BCE-with-logits loss (Eq. 11), the mean READOUT (Eq. 10), Frobenius
/// normalization (Eq. 8) and the AᵀB product of the attention (Eq. 9).
/// A program records one graph (DESIGN.md §13).

#include <cstdint>
#include <vector>

#include "nn/matrix.hpp"
#include "nn/sparse.hpp"

namespace ns::nn {

/// A trainable tensor with persistent gradient and Adam state.
struct Parameter {
  Matrix value;
  Matrix grad;

  explicit Parameter(Matrix v = {})
      : value(std::move(v)), grad(value.rows(), value.cols()) {}

  void zero_grad() { grad.fill(0.0f); }
};

/// Handle to a tensor recorded on a Program.
struct TensorId {
  std::int32_t idx = -1;
  bool valid() const { return idx >= 0; }
};

/// Opcode of one recorded instruction.
enum class Op : std::uint8_t {
  kConstant,
  kParam,
  kMatmul,
  kMatmulAtB,
  kAdd,
  kSub,
  kHadamard,
  kAddScalar,
  kReciprocal,
  kRelu,
  kSigmoid,
  kTanh,
  kSpmm,
  kFrobeniusNormalize,
  kAddRowBroadcast,
  kBroadcastRow,
  kRowMul,
  kScalarMul,
  kMeanRows,
  kConcatCols,
  kSliceCols,
  kPermuteRows,
  kBceWithLogits,
};

/// Printable opcode name (diagnostics and tests).
const char* op_name(Op op);

/// One op-coded node: opcode + operand indices + shape + immediates.
/// 'a'/'b' index earlier instructions; unused operand slots stay -1.
struct Inst {
  Op op = Op::kConstant;
  bool requires_grad = false;
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::uint32_t rows = 0;  ///< output shape, inferred at recording time
  std::uint32_t cols = 0;
  float f0 = 0.0f;  ///< add_scalar addend / BCE target
  float f1 = 0.0f;  ///< BCE pos_weight
  std::uint32_t u0 = 0;  ///< literal/perm pool index, slice start, row count
  std::uint32_t u1 = 0;  ///< slice length
  Parameter* param = nullptr;            ///< kParam binding (live, not copied)
  const SparseMatrix* sparse = nullptr;  ///< kSpmm operator; must outlive runs
};

/// A recorded forward computation: flat instruction list plus the pools
/// backing constant payloads and permutation vectors.
class Program {
 public:
  Program() = default;
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  // --- leaves ---------------------------------------------------------
  /// Constant input. The payload is moved into the program's literal pool;
  /// no gradient storage is ever attached to it.
  TensorId constant(Matrix value);

  /// Leaf bound to a Parameter. The binding is live: every execution reads
  /// `p->value` as it is at that moment, so one recording serves the whole
  /// training run. `p` must outlive all executions.
  TensorId param(Parameter* p);

  // --- dense algebra -----------------------------------------------------
  TensorId matmul(TensorId a, TensorId b);  ///< A·B
  TensorId matmul_at_b(TensorId a, TensorId b);  ///< Aᵀ·B (Eq. 9's K̃ᵀV)
  TensorId add(TensorId a, TensorId b);
  TensorId sub(TensorId a, TensorId b);
  TensorId hadamard(TensorId a, TensorId b);  ///< elementwise product
  TensorId add_scalar(TensorId a, float s);
  TensorId reciprocal(TensorId a);  ///< elementwise 1/x

  // --- activations ------------------------------------------------------
  TensorId relu(TensorId a);
  TensorId sigmoid(TensorId a);
  TensorId tanh_fn(TensorId a);

  // --- graph / structure ops ---------------------------------------------
  /// Y = S·X with constant sparse S, which must outlive all executions.
  /// The backward pass multiplies by `s->transposed()`, materialized once
  /// per matrix and cached (inference-only executions never pay for it).
  TensorId spmm(const SparseMatrix* s, TensorId x);

  /// Y = X / ‖X‖_F (Eq. 8's Q̃/K̃); an all-zero X maps to zeros.
  TensorId frobenius_normalize(TensorId a);

  /// Y = X + 1·b, bias row `b` (1×d) broadcast over rows.
  TensorId add_row_broadcast(TensorId x, TensorId bias_row);

  /// Y (n×d) = row (1×d) repeated n times.
  TensorId broadcast_row(TensorId row, std::size_t n);

  /// Y_ij = X_ij * s_i with s an (N×1) column (Eq. 9's D⁻¹ application).
  TensorId row_mul(TensorId x, TensorId s);

  /// Y = X * s with s a (1×1) scalar node (ReZero-style gates, Eq. 9's 1/N).
  TensorId scalar_mul(TensorId x, TensorId s);

  /// Column mean over all rows, (N×d) → (1×d), N > 0. The READOUT of
  /// Eq. 10.
  TensorId mean_rows(TensorId a);

  /// Horizontal concatenation [A | B].
  TensorId concat_cols(TensorId a, TensorId b);

  /// Column slice [start, start+len).
  TensorId slice_cols(TensorId a, std::size_t start, std::size_t len);

  /// Y[i] = X[perm[i]]; `perm` must be a permutation of the row indices.
  TensorId permute_rows(TensorId a, std::vector<std::uint32_t> perm);

  // --- losses -----------------------------------------------------------
  /// Numerically stable binary cross-entropy on a (1×1) logit (Eq. 11).
  /// `pos_weight` scales the positive-class term (class rebalancing):
  /// loss = pos_weight·y·softplus(-x) + (1-y)·softplus(x).
  TensorId bce_with_logits(TensorId logit, float target,
                           float pos_weight = 1.0f);

  // --- introspection ------------------------------------------------------
  std::size_t num_insts() const { return insts_.size(); }
  const Inst& inst(std::size_t i) const { return insts_[i]; }
  const std::vector<Inst>& insts() const { return insts_; }

  std::size_t rows(TensorId id) const { return at(id).rows; }
  std::size_t cols(TensorId id) const { return at(id).cols; }

  /// Instruction behind a handle, with validation (throws on bad ids).
  const Inst& at(TensorId id) const;

  const Matrix& literal(std::size_t pool_idx) const {
    return literals_[pool_idx];
  }
  const std::vector<std::uint32_t>& perm(std::size_t pool_idx) const {
    return perms_[pool_idx];
  }
  std::size_t num_literals() const { return literals_.size(); }
  std::size_t num_perms() const { return perms_.size(); }

  /// Mutable access to a recorded instruction. Exists solely so audit
  /// fault-injection tests can corrupt a program in place; production code
  /// must never rewrite recorded instructions.
  Inst& debug_inst(std::size_t i) { return insts_[i]; }

  /// Sum of output elements over all instructions — what an executor with
  /// no buffer reuse would have to hold (workspace-planner baseline).
  std::size_t total_value_elements() const;

 private:
  /// Validates an operand handle; returns its instruction.
  const Inst& operand(Op op, TensorId id) const;

  /// Appends `n` with operand slots `a` and `b` (an unset slot stays -1).
  /// Every recorder ends here, so this is where the requires_grad rule
  /// lives: a node requires gradients if it is a Parameter leaf or any of
  /// its operands does.
  TensorId push(Inst n, TensorId a = {}, TensorId b = {});

  /// Recorder of the unary ops whose output has the operand's shape;
  /// `f0` is the one immediate (add_scalar's addend).
  TensorId same_shape(Op op, TensorId a, float f0 = 0.0f);

  /// Recorder of the equal-shape elementwise binary ops.
  TensorId elementwise(Op op, TensorId a, TensorId b);

  std::vector<Inst> insts_;
  std::vector<Matrix> literals_;
  std::vector<std::vector<std::uint32_t>> perms_;
};

}  // namespace ns::nn
