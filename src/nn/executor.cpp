#include "nn/executor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ns::nn {
namespace {

bool is_leaf(Op op) { return op == Op::kConstant || op == Op::kParam; }

constexpr const char* kUnplanned =
    ") was recorded after this executor was planned";

}  // namespace

Executor::Executor(const Program& prog, ExecMode mode)
    : prog_(&prog), mode_(mode) {
  plan();
}

// ---------------------------------------------------------------------------
// Workspace planning
// ---------------------------------------------------------------------------

void Executor::plan() {
  const std::int32_t n = static_cast<std::int32_t>(prog_->num_insts());
  const auto& insts = prog_->insts();

  // Liveness: a node's value must stay valid until its last consumer has
  // executed. Nodes nothing consumes are program outputs and live forever.
  last_use_.assign(n, -1);
  for (std::int32_t i = 0; i < n; ++i) {
    if (insts[i].a >= 0) last_use_[insts[i].a] = i;
    if (insts[i].b >= 0) last_use_[insts[i].b] = i;
  }
  for (std::int32_t i = 0; i < n; ++i) {
    // Training keeps everything live: backward reads every forward value.
    if (last_use_[i] < 0 || mode_ == ExecMode::kTraining) last_use_[i] = n;
  }

  slot_of_.assign(n, -1);
  std::vector<std::size_t> slot_cap;

  if (mode_ == ExecMode::kTraining) {
    for (std::int32_t i = 0; i < n; ++i) {
      if (is_leaf(insts[i].op)) continue;
      slot_of_[i] = static_cast<std::int32_t>(slot_cap.size());
      slot_cap.push_back(static_cast<std::size_t>(insts[i].rows) *
                         insts[i].cols);
    }
  } else {
    // Linear scan over the instruction order. A slot is returned to the
    // free list at the instruction *after* its owner's last use, so the
    // output buffer of instruction i can never alias one of i's operands.
    std::vector<std::vector<std::int32_t>> expire(n + 1);
    for (std::int32_t i = 0; i < n; ++i) {
      if (!is_leaf(insts[i].op) && last_use_[i] < n) {
        expire[last_use_[i] + 1].push_back(i);
      }
    }
    std::vector<std::int32_t> free_slots;
    for (std::int32_t i = 0; i < n; ++i) {
      for (std::int32_t dead : expire[i]) free_slots.push_back(slot_of_[dead]);
      if (is_leaf(insts[i].op)) continue;
      const std::size_t need =
          static_cast<std::size_t>(insts[i].rows) * insts[i].cols;
      // Best fit: the smallest free slot that already holds `need` floats;
      // otherwise grow the largest free slot; otherwise open a new one.
      int best = -1, largest = -1;
      for (int f = 0; f < static_cast<int>(free_slots.size()); ++f) {
        const std::size_t cap = slot_cap[free_slots[f]];
        if (cap >= need && (best < 0 || cap < slot_cap[free_slots[best]])) {
          best = f;
        }
        if (largest < 0 || cap > slot_cap[free_slots[largest]]) largest = f;
      }
      const int pick = best >= 0 ? best : largest;
      if (pick >= 0) {
        const std::int32_t s = free_slots[pick];
        free_slots[pick] = free_slots.back();
        free_slots.pop_back();
        if (slot_cap[s] < need) slot_cap[s] = need;
        slot_of_[i] = s;
      } else {
        slot_of_[i] = static_cast<std::int32_t>(slot_cap.size());
        slot_cap.push_back(need);
      }
    }
  }

  slots_.resize(slot_cap.size());
  for (std::size_t s = 0; s < slot_cap.size(); ++s) {
    slots_[s].reserve(slot_cap[s]);
  }
}

std::size_t Executor::workspace_elements() const {
  std::size_t total = 0;
  for (const Matrix& s : slots_) total += s.capacity();
  return total;
}

std::size_t Executor::workspace_buffers() const { return slots_.size(); }

WorkspacePlan Executor::plan_snapshot() const {
  WorkspacePlan p;
  p.mode = mode_;
  p.slot_of = slot_of_;
  p.last_use = last_use_;
  p.slot_capacity.reserve(slots_.size());
  for (const Matrix& s : slots_) p.slot_capacity.push_back(s.capacity());
  return p;
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

const Matrix& Executor::value_of(std::int32_t i) const {
  const Inst& in = prog_->inst(static_cast<std::size_t>(i));
  if (in.op == Op::kConstant) return prog_->literal(in.u0);
  if (in.op == Op::kParam) return in.param->value;
  return slots_[slot_of_[i]];
}

Matrix& Executor::out_of(std::int32_t i) {
  const Inst& in = prog_->inst(static_cast<std::size_t>(i));
  Matrix& out = slots_[slot_of_[i]];
  out.reshape(in.rows, in.cols);
  return out;
}

const Inst& Executor::planned_at(const char* fn, TensorId id) const {
  const Inst& in = prog_->at(id);
  if (id.idx >= num_planned()) {
    throw std::logic_error(std::string("Executor::") + fn + ": node " +
                           std::to_string(id.idx) + " (" + op_name(in.op) +
                           kUnplanned);
  }
  return in;
}

const Matrix& Executor::value(TensorId id) const {
  const Inst& in = prog_->at(id);
  const std::int32_t n = num_planned();
  if (id.idx >= n || (!is_leaf(in.op) && last_use_[id.idx] < n)) {
    // NS_SUPPRESS(throw, allocation): cold misuse guard — a correctly
    // planned session only reads program outputs it planned, so this path
    // is never taken in steady state.
    throw std::logic_error(
        std::string("Executor::value: node ") + std::to_string(id.idx) + " (" +
        op_name(in.op) +
        (id.idx >= n ? kUnplanned
                     : ") is a recycled intermediate in inference mode; only "
                       "program outputs stay live"));
  }
  return value_of(id.idx);
}

bool Executor::has_grad(TensorId id) const {
  return planned_at("has_grad", id).requires_grad &&
         mode_ == ExecMode::kTraining;
}

const Matrix& Executor::grad(TensorId id) {
  const Inst& in = planned_at("grad", id);
  if (mode_ != ExecMode::kTraining) {
    throw std::logic_error(
        "Executor::grad: inference-mode executors carry no gradient storage");
  }
  if (!in.requires_grad) {
    throw std::logic_error(std::string("Executor::grad: node ") +
                           std::to_string(id.idx) + " (" + op_name(in.op) +
                           ") does not require gradients (no Parameter "
                           "upstream), so no storage is allocated for it");
  }
  allocate_grads();
  return grads_[id.idx];
}

void Executor::allocate_grads() {
  if (grads_allocated_) return;
  const std::int32_t n = num_planned();
  grads_.resize(n);
  for (std::int32_t i = 0; i < n; ++i) {
    const Inst& in = prog_->inst(i);
    if (in.requires_grad) grads_[i] = Matrix(in.rows, in.cols);
  }
  grads_allocated_ = true;
}

// ---------------------------------------------------------------------------
// Forward interpreter
// ---------------------------------------------------------------------------
// Every case reproduces the eager tape's per-element float operation order
// exactly (copy-then-update collapses to a single expression with the same
// rounding), so values are bitwise identical to the pre-split implementation.

// NS_HOT(the planned-program interpreter loop — every inference runs it)
void Executor::forward() {
  const std::int32_t n = num_planned();
  for (std::int32_t i = 0; i < n; ++i) {
    const Inst& in = prog_->inst(static_cast<std::size_t>(i));
    switch (in.op) {
      case Op::kConstant:
      case Op::kParam:
        break;
      case Op::kMatmul:
        matmul_into(value_of(in.a), value_of(in.b), out_of(i));
        break;
      case Op::kMatmulAtB:
        matmul_at_b_into(value_of(in.a), value_of(in.b), out_of(i));
        break;
      case Op::kAdd: {
        const Matrix& va = value_of(in.a);
        const Matrix& vb = value_of(in.b);
        Matrix& y = out_of(i);
        for (std::size_t k = 0; k < y.size(); ++k) {
          y.data()[k] = va.data()[k] + vb.data()[k];
        }
        break;
      }
      case Op::kSub: {
        const Matrix& va = value_of(in.a);
        const Matrix& vb = value_of(in.b);
        Matrix& y = out_of(i);
        for (std::size_t k = 0; k < y.size(); ++k) {
          y.data()[k] = va.data()[k] - vb.data()[k];
        }
        break;
      }
      case Op::kHadamard: {
        const Matrix& va = value_of(in.a);
        const Matrix& vb = value_of(in.b);
        Matrix& y = out_of(i);
        for (std::size_t k = 0; k < y.size(); ++k) {
          y.data()[k] = va.data()[k] * vb.data()[k];
        }
        break;
      }
      case Op::kAddScalar: {
        const Matrix& va = value_of(in.a);
        Matrix& y = out_of(i);
        for (std::size_t k = 0; k < y.size(); ++k) {
          y.data()[k] = va.data()[k] + in.f0;
        }
        break;
      }
      case Op::kReciprocal: {
        const Matrix& va = value_of(in.a);
        Matrix& y = out_of(i);
        for (std::size_t k = 0; k < y.size(); ++k) {
          y.data()[k] = 1.0f / va.data()[k];
        }
        break;
      }
      case Op::kRelu: {
        const Matrix& va = value_of(in.a);
        Matrix& y = out_of(i);
        for (std::size_t k = 0; k < y.size(); ++k) {
          const float x = va.data()[k];
          y.data()[k] = x < 0.0f ? 0.0f : x;
        }
        break;
      }
      case Op::kSigmoid: {
        const Matrix& va = value_of(in.a);
        Matrix& y = out_of(i);
        for (std::size_t k = 0; k < y.size(); ++k) {
          y.data()[k] = 1.0f / (1.0f + std::exp(-va.data()[k]));
        }
        break;
      }
      case Op::kTanh: {
        const Matrix& va = value_of(in.a);
        Matrix& y = out_of(i);
        for (std::size_t k = 0; k < y.size(); ++k) {
          y.data()[k] = std::tanh(va.data()[k]);
        }
        break;
      }
      case Op::kSpmm:
        in.sparse->multiply_into(value_of(in.a), out_of(i));
        break;
      case Op::kFrobeniusNormalize: {
        const Matrix& va = value_of(in.a);
        const float norm = va.frobenius_norm();
        const float inv = norm > 0.0f ? 1.0f / norm : 0.0f;
        Matrix& y = out_of(i);
        for (std::size_t k = 0; k < y.size(); ++k) {
          y.data()[k] = va.data()[k] * inv;
        }
        break;
      }
      case Op::kAddRowBroadcast: {
        const Matrix& vx = value_of(in.a);
        const Matrix& vb = value_of(in.b);
        Matrix& y = out_of(i);
        for (std::size_t r = 0; r < y.rows(); ++r) {
          for (std::size_t c = 0; c < y.cols(); ++c) {
            y.at(r, c) = vx.at(r, c) + vb.at(0, c);
          }
        }
        break;
      }
      case Op::kBroadcastRow: {
        const Matrix& vr = value_of(in.a);
        Matrix& y = out_of(i);
        for (std::size_t r = 0; r < y.rows(); ++r) {
          for (std::size_t c = 0; c < y.cols(); ++c) y.at(r, c) = vr.at(0, c);
        }
        break;
      }
      case Op::kRowMul: {
        const Matrix& vx = value_of(in.a);
        const Matrix& vs = value_of(in.b);
        Matrix& y = out_of(i);
        for (std::size_t r = 0; r < y.rows(); ++r) {
          const float f = vs.at(r, 0);
          for (std::size_t c = 0; c < y.cols(); ++c) {
            y.at(r, c) = vx.at(r, c) * f;
          }
        }
        break;
      }
      case Op::kScalarMul: {
        const Matrix& vx = value_of(in.a);
        const float s = value_of(in.b).at(0, 0);
        Matrix& y = out_of(i);
        for (std::size_t k = 0; k < y.size(); ++k) {
          y.data()[k] = vx.data()[k] * s;
        }
        break;
      }
      case Op::kMeanRows: {
        const Matrix& va = value_of(in.a);
        Matrix& y = out_of(i);
        y.fill(0.0f);
        for (std::size_t r = 0; r < va.rows(); ++r) {
          for (std::size_t c = 0; c < va.cols(); ++c) {
            y.at(0, c) += va.at(r, c);
          }
        }
        y.scale_in_place(1.0f / static_cast<float>(va.rows()));
        break;
      }
      case Op::kConcatCols: {
        const Matrix& va = value_of(in.a);
        const Matrix& vb = value_of(in.b);
        Matrix& y = out_of(i);
        for (std::size_t r = 0; r < y.rows(); ++r) {
          for (std::size_t c = 0; c < va.cols(); ++c) y.at(r, c) = va.at(r, c);
          for (std::size_t c = 0; c < vb.cols(); ++c) {
            y.at(r, va.cols() + c) = vb.at(r, c);
          }
        }
        break;
      }
      case Op::kSliceCols: {
        const Matrix& va = value_of(in.a);
        Matrix& y = out_of(i);
        const std::size_t start = in.u0;
        for (std::size_t r = 0; r < y.rows(); ++r) {
          for (std::size_t c = 0; c < y.cols(); ++c) {
            y.at(r, c) = va.at(r, start + c);
          }
        }
        break;
      }
      case Op::kPermuteRows: {
        const Matrix& va = value_of(in.a);
        const std::vector<std::uint32_t>& perm = prog_->perm(in.u0);
        Matrix& y = out_of(i);
        for (std::size_t r = 0; r < y.rows(); ++r) {
          for (std::size_t c = 0; c < y.cols(); ++c) {
            y.at(r, c) = va.at(perm[r], c);
          }
        }
        break;
      }
      case Op::kBceWithLogits: {
        const float x = value_of(in.a).at(0, 0);
        // softplus(x) = max(x,0) + log1p(exp(-|x|)), numerically stable.
        const float sp_pos =
            std::max(x, 0.0f) + std::log1p(std::exp(-std::abs(x)));
        const float sp_neg = sp_pos - x;  // softplus(-x)
        const float target = in.f0, pos_weight = in.f1;
        out_of(i).at(0, 0) =
            pos_weight * target * sp_neg + (1.0f - target) * sp_pos;
        break;
      }
    }
  }
  ran_forward_ = true;
}

// ---------------------------------------------------------------------------
// Backward interpreter
// ---------------------------------------------------------------------------
// Same formulas as the eager tape's per-op lambdas, walked in the same
// reverse order. Nodes with requires_grad == false are skipped entirely —
// every accumulation into a requires_grad buffer comes from a node that is
// itself requires_grad, so the skipped work only ever touched buffers the
// eager tape allocated and then threw away.

void Executor::backward(TensorId loss) {
  if (mode_ != ExecMode::kTraining) {
    throw std::logic_error(
        "Executor::backward: this executor was built with "
        "ExecMode::kInference (no gradient storage); use kTraining");
  }
  const bool loss_requires_grad = planned_at("backward", loss).requires_grad;
  if (!ran_forward_) forward();
  if (!loss_requires_grad) {
    // No Parameter upstream of the loss: nothing observable to accumulate.
    return;
  }
  allocate_grads();
  const std::int32_t n = num_planned();
  for (std::int32_t i = 0; i < n; ++i) {
    if (prog_->inst(i).requires_grad) grads_[i].fill(0.0f);
  }
  grads_[loss.idx].fill(1.0f);

  const auto rg = [&](std::int32_t i) {
    return prog_->inst(static_cast<std::size_t>(i)).requires_grad;
  };

  for (std::int32_t i = n - 1; i >= 0; --i) {
    const Inst& in = prog_->inst(static_cast<std::size_t>(i));
    if (!in.requires_grad) continue;
    const Matrix& dy = grads_[i];
    switch (in.op) {
      case Op::kConstant:
        break;
      case Op::kParam:
        in.param->grad.add_in_place(dy);
        break;
      case Op::kMatmul:
        // dA += dY · Bᵀ ; dB += Aᵀ · dY
        if (rg(in.a)) {
          grads_[in.a].add_in_place(matmul_a_bt(dy, value_of(in.b)));
        }
        if (rg(in.b)) {
          grads_[in.b].add_in_place(matmul_at_b(value_of(in.a), dy));
        }
        break;
      case Op::kMatmulAtB:
        // Y = Aᵀ·B: dA += B · dYᵀ ; dB += A · dY
        if (rg(in.a)) {
          grads_[in.a].add_in_place(matmul_a_bt(value_of(in.b), dy));
        }
        if (rg(in.b)) {
          grads_[in.b].add_in_place(matmul(value_of(in.a), dy));
        }
        break;
      case Op::kAdd:
        if (rg(in.a)) grads_[in.a].add_in_place(dy);
        if (rg(in.b)) grads_[in.b].add_in_place(dy);
        break;
      case Op::kSub: {
        if (rg(in.a)) grads_[in.a].add_in_place(dy);
        if (rg(in.b)) {
          Matrix& db = grads_[in.b];
          for (std::size_t k = 0; k < db.size(); ++k) {
            db.data()[k] -= dy.data()[k];
          }
        }
        break;
      }
      case Op::kHadamard: {
        const Matrix& va = value_of(in.a);
        const Matrix& vb = value_of(in.b);
        if (rg(in.a)) {
          Matrix& da = grads_[in.a];
          for (std::size_t k = 0; k < dy.size(); ++k) {
            da.data()[k] += dy.data()[k] * vb.data()[k];
          }
        }
        if (rg(in.b)) {
          Matrix& db = grads_[in.b];
          for (std::size_t k = 0; k < dy.size(); ++k) {
            db.data()[k] += dy.data()[k] * va.data()[k];
          }
        }
        break;
      }
      case Op::kAddScalar:
        grads_[in.a].add_in_place(dy);
        break;
      case Op::kReciprocal: {
        const Matrix& vy = value_of(i);
        Matrix& da = grads_[in.a];
        for (std::size_t k = 0; k < dy.size(); ++k) {
          da.data()[k] -= dy.data()[k] * vy.data()[k] * vy.data()[k];
        }
        break;
      }
      case Op::kRelu: {
        const Matrix& va = value_of(in.a);
        Matrix& da = grads_[in.a];
        for (std::size_t k = 0; k < dy.size(); ++k) {
          if (va.data()[k] > 0.0f) da.data()[k] += dy.data()[k];
        }
        break;
      }
      case Op::kSigmoid: {
        const Matrix& vy = value_of(i);
        Matrix& da = grads_[in.a];
        for (std::size_t k = 0; k < dy.size(); ++k) {
          const float s = vy.data()[k];
          da.data()[k] += dy.data()[k] * s * (1.0f - s);
        }
        break;
      }
      case Op::kTanh: {
        const Matrix& vy = value_of(i);
        Matrix& da = grads_[in.a];
        for (std::size_t k = 0; k < dy.size(); ++k) {
          const float th = vy.data()[k];
          da.data()[k] += dy.data()[k] * (1.0f - th * th);
        }
        break;
      }
      case Op::kSpmm:
        if (rg(in.a)) {
          grads_[in.a].add_in_place(in.sparse->transposed().multiply(dy));
        }
        break;
      case Op::kFrobeniusNormalize: {
        // The input stays live in training, so its norm recomputes to the
        // forward's bits.
        const Matrix& va = value_of(in.a);
        const float norm = va.frobenius_norm();
        if (norm == 0.0f) break;
        const float inv = 1.0f / norm;
        // d/dX (X/‖X‖) : dX = dY/‖X‖ − X · (Σ dY∘X) / ‖X‖³
        double dot = 0.0;
        for (std::size_t k = 0; k < dy.size(); ++k) {
          dot += static_cast<double>(dy.data()[k]) * va.data()[k];
        }
        const float kf = static_cast<float>(dot) * inv * inv * inv;
        Matrix& da = grads_[in.a];
        for (std::size_t k = 0; k < dy.size(); ++k) {
          da.data()[k] += dy.data()[k] * inv - va.data()[k] * kf;
        }
        break;
      }
      case Op::kAddRowBroadcast: {
        if (rg(in.a)) grads_[in.a].add_in_place(dy);
        if (rg(in.b)) {
          Matrix& db = grads_[in.b];
          for (std::size_t r = 0; r < dy.rows(); ++r) {
            for (std::size_t c = 0; c < dy.cols(); ++c) {
              db.at(0, c) += dy.at(r, c);
            }
          }
        }
        break;
      }
      case Op::kBroadcastRow: {
        Matrix& dr = grads_[in.a];
        for (std::size_t r = 0; r < dy.rows(); ++r) {
          for (std::size_t c = 0; c < dy.cols(); ++c) {
            dr.at(0, c) += dy.at(r, c);
          }
        }
        break;
      }
      case Op::kRowMul: {
        const Matrix& vx = value_of(in.a);
        const Matrix& vs = value_of(in.b);
        const bool rga = rg(in.a), rgs = rg(in.b);
        for (std::size_t r = 0; r < dy.rows(); ++r) {
          const float f = vs.at(r, 0);
          double acc = 0.0;
          for (std::size_t c = 0; c < dy.cols(); ++c) {
            if (rga) grads_[in.a].at(r, c) += dy.at(r, c) * f;
            acc += static_cast<double>(dy.at(r, c)) * vx.at(r, c);
          }
          if (rgs) grads_[in.b].at(r, 0) += static_cast<float>(acc);
        }
        break;
      }
      case Op::kScalarMul: {
        const Matrix& vx = value_of(in.a);
        const float s = value_of(in.b).at(0, 0);
        const bool rga = rg(in.a), rgs = rg(in.b);
        double acc = 0.0;
        for (std::size_t k = 0; k < dy.size(); ++k) {
          if (rga) grads_[in.a].data()[k] += dy.data()[k] * s;
          acc += static_cast<double>(dy.data()[k]) * vx.data()[k];
        }
        if (rgs) grads_[in.b].at(0, 0) += static_cast<float>(acc);
        break;
      }
      case Op::kMeanRows: {
        const float inv = 1.0f / static_cast<float>(prog_->inst(in.a).rows);
        Matrix& da = grads_[in.a];
        for (std::size_t r = 0; r < da.rows(); ++r) {
          for (std::size_t c = 0; c < da.cols(); ++c) {
            da.at(r, c) += dy.at(0, c) * inv;
          }
        }
        break;
      }
      case Op::kConcatCols: {
        const bool rga = rg(in.a), rgb = rg(in.b);
        const std::size_t ca = prog_->inst(in.a).cols;
        const std::size_t cb = prog_->inst(in.b).cols;
        for (std::size_t r = 0; r < dy.rows(); ++r) {
          if (rga) {
            for (std::size_t c = 0; c < ca; ++c) {
              grads_[in.a].at(r, c) += dy.at(r, c);
            }
          }
          if (rgb) {
            for (std::size_t c = 0; c < cb; ++c) {
              grads_[in.b].at(r, c) += dy.at(r, ca + c);
            }
          }
        }
        break;
      }
      case Op::kSliceCols: {
        Matrix& da = grads_[in.a];
        const std::size_t start = in.u0, len = in.u1;
        for (std::size_t r = 0; r < dy.rows(); ++r) {
          for (std::size_t c = 0; c < len; ++c) {
            da.at(r, start + c) += dy.at(r, c);
          }
        }
        break;
      }
      case Op::kPermuteRows: {
        const std::vector<std::uint32_t>& perm = prog_->perm(in.u0);
        Matrix& da = grads_[in.a];
        for (std::size_t r = 0; r < dy.rows(); ++r) {
          for (std::size_t c = 0; c < dy.cols(); ++c) {
            da.at(perm[r], c) += dy.at(r, c);
          }
        }
        break;
      }
      case Op::kBceWithLogits: {
        const float x = value_of(in.a).at(0, 0);
        const float s = 1.0f / (1.0f + std::exp(-x));
        const float dx =
            in.f1 * in.f0 * (s - 1.0f) + (1.0f - in.f0) * s;
        grads_[in.a].at(0, 0) += dy.at(0, 0) * dx;
        break;
      }
    }
  }
}

}  // namespace ns::nn
