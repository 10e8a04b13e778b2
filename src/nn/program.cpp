#include "nn/program.hpp"

#include <stdexcept>
#include <string>

namespace ns::nn {
namespace {

std::string shape_str(const Inst& i) {
  return std::to_string(i.rows) + "x" + std::to_string(i.cols);
}

[[noreturn]] void fail(Op op, const std::string& detail) {
  throw std::invalid_argument(std::string("program.") + op_name(op) + ": " +
                              detail);
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kConstant: return "constant";
    case Op::kParam: return "param";
    case Op::kMatmul: return "matmul";
    case Op::kMatmulAtB: return "matmul_at_b";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kHadamard: return "hadamard";
    case Op::kAddScalar: return "add_scalar";
    case Op::kReciprocal: return "reciprocal";
    case Op::kRelu: return "relu";
    case Op::kSigmoid: return "sigmoid";
    case Op::kTanh: return "tanh";
    case Op::kSpmm: return "spmm";
    case Op::kFrobeniusNormalize: return "frobenius_normalize";
    case Op::kAddRowBroadcast: return "add_row_broadcast";
    case Op::kBroadcastRow: return "broadcast_row";
    case Op::kRowMul: return "row_mul";
    case Op::kScalarMul: return "scalar_mul";
    case Op::kMeanRows: return "mean_rows";
    case Op::kConcatCols: return "concat_cols";
    case Op::kSliceCols: return "slice_cols";
    case Op::kPermuteRows: return "permute_rows";
    case Op::kBceWithLogits: return "bce_with_logits";
  }
  return "?";
}

const Inst& Program::at(TensorId id) const {
  if (!id.valid() || static_cast<std::size_t>(id.idx) >= insts_.size()) {
    // NS_SUPPRESS(throw, allocation): cold bounds guard — ids handed out
    // by the recorder are always valid, so a verified program never takes it.
    throw std::invalid_argument(
        "program: TensorId " + std::to_string(id.idx) +
        " does not name a recorded node (program has " +
        std::to_string(insts_.size()) + ")");
  }
  return insts_[id.idx];
}

const Inst& Program::operand(Op op, TensorId id) const {
  if (!id.valid() || static_cast<std::size_t>(id.idx) >= insts_.size()) {
    fail(op, "operand TensorId " + std::to_string(id.idx) +
                 " does not name a recorded node (program has " +
                 std::to_string(insts_.size()) + ")");
  }
  return insts_[id.idx];
}

TensorId Program::push(Inst n, TensorId a, TensorId b) {
  n.a = a.idx;
  n.b = b.idx;
  for (const TensorId in : {a, b}) {
    if (in.valid() && insts_[in.idx].requires_grad) n.requires_grad = true;
  }
  insts_.push_back(n);
  return TensorId{static_cast<std::int32_t>(insts_.size()) - 1};
}

TensorId Program::same_shape(Op op, TensorId a, float f0) {
  const Inst& va = operand(op, a);
  return push({.op = op, .rows = va.rows, .cols = va.cols, .f0 = f0}, a);
}

TensorId Program::elementwise(Op op, TensorId a, TensorId b) {
  const Inst& va = operand(op, a);
  const Inst& vb = operand(op, b);
  if (va.rows != vb.rows || va.cols != vb.cols) {
    fail(op, "shapes differ: " + shape_str(va) + " vs " + shape_str(vb));
  }
  return push({.op = op, .rows = va.rows, .cols = va.cols}, a, b);
}

std::size_t Program::total_value_elements() const {
  std::size_t total = 0;
  for (const Inst& i : insts_) {
    total += static_cast<std::size_t>(i.rows) * i.cols;
  }
  return total;
}

TensorId Program::constant(Matrix value) {
  const Inst n{.op = Op::kConstant,
               .rows = static_cast<std::uint32_t>(value.rows()),
               .cols = static_cast<std::uint32_t>(value.cols()),
               .u0 = static_cast<std::uint32_t>(literals_.size())};
  literals_.push_back(std::move(value));
  return push(n);
}

TensorId Program::param(Parameter* p) {
  if (p == nullptr) fail(Op::kParam, "null Parameter binding");
  return push({.op = Op::kParam,
               .requires_grad = true,
               .rows = static_cast<std::uint32_t>(p->value.rows()),
               .cols = static_cast<std::uint32_t>(p->value.cols()),
               .param = p});
}

TensorId Program::matmul(TensorId a, TensorId b) {
  const Inst& va = operand(Op::kMatmul, a);
  const Inst& vb = operand(Op::kMatmul, b);
  if (va.cols != vb.rows) {
    fail(Op::kMatmul, "inner dimensions differ: A is " + shape_str(va) +
                          ", B is " + shape_str(vb));
  }
  return push({.op = Op::kMatmul, .rows = va.rows, .cols = vb.cols}, a, b);
}

TensorId Program::matmul_at_b(TensorId a, TensorId b) {
  const Inst& va = operand(Op::kMatmulAtB, a);
  const Inst& vb = operand(Op::kMatmulAtB, b);
  if (va.rows != vb.rows) {
    fail(Op::kMatmulAtB, "row counts differ: A is " + shape_str(va) +
                             ", B is " + shape_str(vb));
  }
  return push({.op = Op::kMatmulAtB, .rows = va.cols, .cols = vb.cols}, a, b);
}

TensorId Program::add(TensorId a, TensorId b) {
  return elementwise(Op::kAdd, a, b);
}

TensorId Program::sub(TensorId a, TensorId b) {
  return elementwise(Op::kSub, a, b);
}

TensorId Program::hadamard(TensorId a, TensorId b) {
  return elementwise(Op::kHadamard, a, b);
}

TensorId Program::add_scalar(TensorId a, float s) {
  return same_shape(Op::kAddScalar, a, s);
}

TensorId Program::reciprocal(TensorId a) {
  return same_shape(Op::kReciprocal, a);
}

TensorId Program::relu(TensorId a) { return same_shape(Op::kRelu, a); }

TensorId Program::sigmoid(TensorId a) { return same_shape(Op::kSigmoid, a); }

TensorId Program::tanh_fn(TensorId a) { return same_shape(Op::kTanh, a); }

TensorId Program::spmm(const SparseMatrix* s, TensorId x) {
  if (s == nullptr) fail(Op::kSpmm, "null SparseMatrix operator");
  const Inst& vx = operand(Op::kSpmm, x);
  if (s->cols() != vx.rows) {
    fail(Op::kSpmm, "S is " + std::to_string(s->rows()) + "x" +
                        std::to_string(s->cols()) + " but X is " +
                        shape_str(vx));
  }
  return push({.op = Op::kSpmm,
               .rows = static_cast<std::uint32_t>(s->rows()),
               .cols = vx.cols,
               .sparse = s},
              x);
}

TensorId Program::frobenius_normalize(TensorId a) {
  return same_shape(Op::kFrobeniusNormalize, a);
}

TensorId Program::add_row_broadcast(TensorId x, TensorId bias_row) {
  const Inst& vx = operand(Op::kAddRowBroadcast, x);
  const Inst& vb = operand(Op::kAddRowBroadcast, bias_row);
  if (vb.rows != 1 || vb.cols != vx.cols) {
    fail(Op::kAddRowBroadcast, "bias must be 1x" + std::to_string(vx.cols) +
                                   " to broadcast over X " + shape_str(vx) +
                                   ", got " + shape_str(vb));
  }
  return push({.op = Op::kAddRowBroadcast, .rows = vx.rows, .cols = vx.cols},
              x, bias_row);
}

TensorId Program::broadcast_row(TensorId row, std::size_t n_rows) {
  const Inst& vr = operand(Op::kBroadcastRow, row);
  if (vr.rows != 1) {
    fail(Op::kBroadcastRow,
         "input must be a single row, got " + shape_str(vr));
  }
  if (n_rows == 0) fail(Op::kBroadcastRow, "cannot broadcast to 0 rows");
  const auto n = static_cast<std::uint32_t>(n_rows);
  return push({.op = Op::kBroadcastRow, .rows = n, .cols = vr.cols, .u0 = n},
              row);
}

TensorId Program::row_mul(TensorId x, TensorId s) {
  const Inst& vx = operand(Op::kRowMul, x);
  const Inst& vs = operand(Op::kRowMul, s);
  if (vs.rows != vx.rows || vs.cols != 1) {
    fail(Op::kRowMul, "scale must be " + std::to_string(vx.rows) +
                          "x1 for X " + shape_str(vx) + ", got " +
                          shape_str(vs));
  }
  return push({.op = Op::kRowMul, .rows = vx.rows, .cols = vx.cols}, x, s);
}

TensorId Program::scalar_mul(TensorId x, TensorId s) {
  const Inst& vx = operand(Op::kScalarMul, x);
  const Inst& vs = operand(Op::kScalarMul, s);
  if (vs.rows != 1 || vs.cols != 1) {
    fail(Op::kScalarMul, "scale must be 1x1, got " + shape_str(vs));
  }
  return push({.op = Op::kScalarMul, .rows = vx.rows, .cols = vx.cols}, x, s);
}

TensorId Program::mean_rows(TensorId a) {
  const Inst& va = operand(Op::kMeanRows, a);
  if (va.rows == 0) fail(Op::kMeanRows, "input has no rows");
  return push({.op = Op::kMeanRows, .rows = 1, .cols = va.cols}, a);
}

TensorId Program::concat_cols(TensorId a, TensorId b) {
  const Inst& va = operand(Op::kConcatCols, a);
  const Inst& vb = operand(Op::kConcatCols, b);
  if (va.rows != vb.rows) {
    fail(Op::kConcatCols,
         "row counts differ: " + shape_str(va) + " vs " + shape_str(vb));
  }
  return push(
      {.op = Op::kConcatCols, .rows = va.rows, .cols = va.cols + vb.cols}, a,
      b);
}

TensorId Program::slice_cols(TensorId a, std::size_t start, std::size_t len) {
  const Inst& va = operand(Op::kSliceCols, a);
  if (start + len > va.cols) {
    fail(Op::kSliceCols, "range [" + std::to_string(start) + ", " +
                             std::to_string(start + len) +
                             ") exceeds input with " +
                             std::to_string(va.cols) + " columns");
  }
  const auto l = static_cast<std::uint32_t>(len);
  return push({.op = Op::kSliceCols,
               .rows = va.rows,
               .cols = l,
               .u0 = static_cast<std::uint32_t>(start),
               .u1 = l},
              a);
}

TensorId Program::permute_rows(TensorId a, std::vector<std::uint32_t> perm) {
  const Inst& va = operand(Op::kPermuteRows, a);
  if (perm.size() != va.rows) {
    fail(Op::kPermuteRows, "permutation has " + std::to_string(perm.size()) +
                               " entries for input with " +
                               std::to_string(va.rows) + " rows");
  }
  for (std::uint32_t p : perm) {
    if (p >= va.rows) {
      fail(Op::kPermuteRows, "index " + std::to_string(p) +
                                 " out of range for " +
                                 std::to_string(va.rows) + " rows");
    }
  }
  const Inst n{.op = Op::kPermuteRows,
               .rows = va.rows,
               .cols = va.cols,
               .u0 = static_cast<std::uint32_t>(perms_.size())};
  perms_.push_back(std::move(perm));
  return push(n, a);
}

TensorId Program::bce_with_logits(TensorId logit, float target,
                                  float pos_weight) {
  const Inst& vl = operand(Op::kBceWithLogits, logit);
  if (vl.rows != 1 || vl.cols != 1) {
    fail(Op::kBceWithLogits, "logit must be 1x1, got " + shape_str(vl));
  }
  return push({.op = Op::kBceWithLogits,
               .rows = 1,
               .cols = 1,
               .f0 = target,
               .f1 = pos_weight},
              logit);
}

}  // namespace ns::nn
