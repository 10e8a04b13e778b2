#include "nn/program.hpp"

#include <stdexcept>
#include <string>

namespace ns::nn {
namespace {

std::string shape_str(const Inst& i) {
  return std::to_string(i.rows) + "x" + std::to_string(i.cols);
}

[[noreturn]] void fail(const char* op, const std::string& detail) {
  throw std::invalid_argument(std::string("tape.") + op + ": " + detail);
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
    // by the tape are always valid, so a verified program never takes it.
    throw std::invalid_argument(
        "tape: TensorId " + std::to_string(id.idx) +
        " does not name a recorded node (program has " +
        std::to_string(insts_.size()) + ")");
  }
  return insts_[id.idx];
}

const Inst& Program::operand(const char* op, TensorId id) const {
  if (!id.valid() || static_cast<std::size_t>(id.idx) >= insts_.size()) {
    fail(op, "operand TensorId " + std::to_string(id.idx) +
                 " does not name a recorded node (program has " +
                 std::to_string(insts_.size()) + ")");
  }
  return insts_[id.idx];
}

TensorId Program::push(Inst inst) {
  insts_.push_back(inst);
  return TensorId{static_cast<std::int32_t>(insts_.size()) - 1};
}

std::size_t Program::total_value_elements() const {
  std::size_t total = 0;
  for (const Inst& i : insts_) {
    total += static_cast<std::size_t>(i.rows) * i.cols;
  }
  return total;
}

TensorId Program::constant(Matrix value) {
  Inst n;
  n.op = Op::kConstant;
  n.rows = static_cast<std::uint32_t>(value.rows());
  n.cols = static_cast<std::uint32_t>(value.cols());
  n.u0 = static_cast<std::uint32_t>(literals_.size());
  literals_.push_back(std::move(value));
  return push(n);
}

TensorId Program::param(Parameter* p) {
  if (p == nullptr) fail("param", "null Parameter binding");
  Inst n;
  n.op = Op::kParam;
  n.requires_grad = true;
  n.rows = static_cast<std::uint32_t>(p->value.rows());
  n.cols = static_cast<std::uint32_t>(p->value.cols());
  n.param = p;
  return push(n);
}

TensorId Program::matmul(TensorId a, TensorId b) {
  const Inst& va = operand("matmul", a);
  const Inst& vb = operand("matmul", b);
  if (va.cols != vb.rows) {
    fail("matmul", "inner dimensions differ: A is " + shape_str(va) +
                       ", B is " + shape_str(vb));
  }
  Inst n;
  n.op = Op::kMatmul;
  n.requires_grad = va.requires_grad || vb.requires_grad;
  n.a = a.idx;
  n.b = b.idx;
  n.rows = va.rows;
  n.cols = vb.cols;
  return push(n);
}

TensorId Program::matmul_at_b(TensorId a, TensorId b) {
  const Inst& va = operand("matmul_at_b", a);
  const Inst& vb = operand("matmul_at_b", b);
  if (va.rows != vb.rows) {
    fail("matmul_at_b", "row counts differ: A is " + shape_str(va) +
                            ", B is " + shape_str(vb));
  }
  Inst n;
  n.op = Op::kMatmulAtB;
  n.requires_grad = va.requires_grad || vb.requires_grad;
  n.a = a.idx;
  n.b = b.idx;
  n.rows = va.cols;
  n.cols = vb.cols;
  return push(n);
}

TensorId Program::add(TensorId a, TensorId b) {
  const Inst& va = operand("add", a);
  const Inst& vb = operand("add", b);
  if (va.rows != vb.rows || va.cols != vb.cols) {
    fail("add", "shapes differ: " + shape_str(va) + " vs " + shape_str(vb));
  }
  Inst n;
  n.op = Op::kAdd;
  n.requires_grad = va.requires_grad || vb.requires_grad;
  n.a = a.idx;
  n.b = b.idx;
  n.rows = va.rows;
  n.cols = va.cols;
  return push(n);
}

TensorId Program::sub(TensorId a, TensorId b) {
  const Inst& va = operand("sub", a);
  const Inst& vb = operand("sub", b);
  if (va.rows != vb.rows || va.cols != vb.cols) {
    fail("sub", "shapes differ: " + shape_str(va) + " vs " + shape_str(vb));
  }
  Inst n;
  n.op = Op::kSub;
  n.requires_grad = va.requires_grad || vb.requires_grad;
  n.a = a.idx;
  n.b = b.idx;
  n.rows = va.rows;
  n.cols = va.cols;
  return push(n);
}

TensorId Program::hadamard(TensorId a, TensorId b) {
  const Inst& va = operand("hadamard", a);
  const Inst& vb = operand("hadamard", b);
  if (va.rows != vb.rows || va.cols != vb.cols) {
    fail("hadamard",
         "shapes differ: " + shape_str(va) + " vs " + shape_str(vb));
  }
  Inst n;
  n.op = Op::kHadamard;
  n.requires_grad = va.requires_grad || vb.requires_grad;
  n.a = a.idx;
  n.b = b.idx;
  n.rows = va.rows;
  n.cols = va.cols;
  return push(n);
}

TensorId Program::add_scalar(TensorId a, float s) {
  const Inst& va = operand("add_scalar", a);
  Inst n;
  n.op = Op::kAddScalar;
  n.requires_grad = va.requires_grad;
  n.a = a.idx;
  n.rows = va.rows;
  n.cols = va.cols;
  n.f0 = s;
  return push(n);
}

TensorId Program::reciprocal(TensorId a) {
  const Inst& va = operand("reciprocal", a);
  Inst n;
  n.op = Op::kReciprocal;
  n.requires_grad = va.requires_grad;
  n.a = a.idx;
  n.rows = va.rows;
  n.cols = va.cols;
  return push(n);
}

TensorId Program::relu(TensorId a) {
  const Inst& va = operand("relu", a);
  Inst n;
  n.op = Op::kRelu;
  n.requires_grad = va.requires_grad;
  n.a = a.idx;
  n.rows = va.rows;
  n.cols = va.cols;
  return push(n);
}

TensorId Program::sigmoid(TensorId a) {
  const Inst& va = operand("sigmoid", a);
  Inst n;
  n.op = Op::kSigmoid;
  n.requires_grad = va.requires_grad;
  n.a = a.idx;
  n.rows = va.rows;
  n.cols = va.cols;
  return push(n);
}

TensorId Program::tanh_fn(TensorId a) {
  const Inst& va = operand("tanh_fn", a);
  Inst n;
  n.op = Op::kTanh;
  n.requires_grad = va.requires_grad;
  n.a = a.idx;
  n.rows = va.rows;
  n.cols = va.cols;
  return push(n);
}

TensorId Program::spmm(const SparseMatrix* s, TensorId x) {
  if (s == nullptr) fail("spmm", "null SparseMatrix operator");
  const Inst& vx = operand("spmm", x);
  if (s->cols() != vx.rows) {
    fail("spmm", "S is " + std::to_string(s->rows()) + "x" +
                     std::to_string(s->cols()) + " but X is " + shape_str(vx));
  }
  Inst n;
  n.op = Op::kSpmm;
  n.requires_grad = vx.requires_grad;
  n.a = x.idx;
  n.rows = static_cast<std::uint32_t>(s->rows());
  n.cols = vx.cols;
  n.sparse = s;
  return push(n);
}

TensorId Program::frobenius_normalize(TensorId a) {
  const Inst& va = operand("frobenius_normalize", a);
  Inst n;
  n.op = Op::kFrobeniusNormalize;
  n.requires_grad = va.requires_grad;
  n.a = a.idx;
  n.rows = va.rows;
  n.cols = va.cols;
  return push(n);
}

TensorId Program::add_row_broadcast(TensorId x, TensorId bias_row) {
  const Inst& vx = operand("add_row_broadcast", x);
  const Inst& vb = operand("add_row_broadcast", bias_row);
  if (vb.rows != 1 || vb.cols != vx.cols) {
    fail("add_row_broadcast", "bias must be 1x" + std::to_string(vx.cols) +
                                  " to broadcast over X " + shape_str(vx) +
                                  ", got " + shape_str(vb));
  }
  Inst n;
  n.op = Op::kAddRowBroadcast;
  n.requires_grad = vx.requires_grad || vb.requires_grad;
  n.a = x.idx;
  n.b = bias_row.idx;
  n.rows = vx.rows;
  n.cols = vx.cols;
  return push(n);
}

TensorId Program::broadcast_row(TensorId row, std::size_t n_rows) {
  const Inst& vr = operand("broadcast_row", row);
  if (vr.rows != 1) {
    fail("broadcast_row", "input must be a single row, got " + shape_str(vr));
  }
  if (n_rows == 0) fail("broadcast_row", "cannot broadcast to 0 rows");
  Inst n;
  n.op = Op::kBroadcastRow;
  n.requires_grad = vr.requires_grad;
  n.a = row.idx;
  n.rows = static_cast<std::uint32_t>(n_rows);
  n.cols = vr.cols;
  n.u0 = static_cast<std::uint32_t>(n_rows);
  return push(n);
}

TensorId Program::row_mul(TensorId x, TensorId s) {
  const Inst& vx = operand("row_mul", x);
  const Inst& vs = operand("row_mul", s);
  if (vs.rows != vx.rows || vs.cols != 1) {
    fail("row_mul", "scale must be " + std::to_string(vx.rows) +
                        "x1 for X " + shape_str(vx) + ", got " +
                        shape_str(vs));
  }
  Inst n;
  n.op = Op::kRowMul;
  n.requires_grad = vx.requires_grad || vs.requires_grad;
  n.a = x.idx;
  n.b = s.idx;
  n.rows = vx.rows;
  n.cols = vx.cols;
  return push(n);
}

TensorId Program::scalar_mul(TensorId x, TensorId s) {
  const Inst& vx = operand("scalar_mul", x);
  const Inst& vs = operand("scalar_mul", s);
  if (vs.rows != 1 || vs.cols != 1) {
    fail("scalar_mul", "scale must be 1x1, got " + shape_str(vs));
  }
  Inst n;
  n.op = Op::kScalarMul;
  n.requires_grad = vx.requires_grad || vs.requires_grad;
  n.a = x.idx;
  n.b = s.idx;
  n.rows = vx.rows;
  n.cols = vx.cols;
  return push(n);
}

TensorId Program::mean_rows(TensorId a) {
  const Inst& va = operand("mean_rows", a);
  if (va.rows == 0) fail("mean_rows", "input has no rows");
  Inst n;
  n.op = Op::kMeanRows;
  n.requires_grad = va.requires_grad;
  n.a = a.idx;
  n.rows = 1;
  n.cols = va.cols;
  return push(n);
}

TensorId Program::concat_cols(TensorId a, TensorId b) {
  const Inst& va = operand("concat_cols", a);
  const Inst& vb = operand("concat_cols", b);
  if (va.rows != vb.rows) {
    fail("concat_cols",
         "row counts differ: " + shape_str(va) + " vs " + shape_str(vb));
  }
  Inst n;
  n.op = Op::kConcatCols;
  n.requires_grad = va.requires_grad || vb.requires_grad;
  n.a = a.idx;
  n.b = b.idx;
  n.rows = va.rows;
  n.cols = va.cols + vb.cols;
  return push(n);
}

TensorId Program::slice_cols(TensorId a, std::size_t start, std::size_t len) {
  const Inst& va = operand("slice_cols", a);
  if (start + len > va.cols) {
    fail("slice_cols", "range [" + std::to_string(start) + ", " +
                           std::to_string(start + len) +
                           ") exceeds input with " + std::to_string(va.cols) +
                           " columns");
  }
  Inst n;
  n.op = Op::kSliceCols;
  n.requires_grad = va.requires_grad;
  n.a = a.idx;
  n.rows = va.rows;
  n.cols = static_cast<std::uint32_t>(len);
  n.u0 = static_cast<std::uint32_t>(start);
  n.u1 = static_cast<std::uint32_t>(len);
  return push(n);
}

TensorId Program::permute_rows(TensorId a, std::vector<std::uint32_t> perm) {
  const Inst& va = operand("permute_rows", a);
  if (perm.size() != va.rows) {
    fail("permute_rows", "permutation has " + std::to_string(perm.size()) +
                             " entries for input with " +
                             std::to_string(va.rows) + " rows");
  }
  for (std::uint32_t p : perm) {
    if (p >= va.rows) {
      fail("permute_rows", "index " + std::to_string(p) +
                               " out of range for " + std::to_string(va.rows) +
                               " rows");
    }
  }
  Inst n;
  n.op = Op::kPermuteRows;
  n.requires_grad = va.requires_grad;
  n.a = a.idx;
  n.rows = va.rows;
  n.cols = va.cols;
  n.u0 = static_cast<std::uint32_t>(perms_.size());
  perms_.push_back(std::move(perm));
  return push(n);
}

TensorId Program::bce_with_logits(TensorId logit, float target,
                                  float pos_weight) {
  const Inst& vl = operand("bce_with_logits", logit);
  if (vl.rows != 1 || vl.cols != 1) {
    fail("bce_with_logits", "logit must be 1x1, got " + shape_str(vl));
  }
  Inst n;
  n.op = Op::kBceWithLogits;
  n.requires_grad = vl.requires_grad;
  n.a = logit.idx;
  n.rows = 1;
  n.cols = 1;
  n.f0 = target;
  n.f1 = pos_weight;
  return push(n);
}

}  // namespace ns::nn
