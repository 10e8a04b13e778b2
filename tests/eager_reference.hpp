#pragma once
/// Test-only reference implementation for the program/executor parity
/// suite: the pre-split eager tape, kept verbatim (modulo the class name)
/// from the seed implementation. Every op computes its value immediately
/// and registers a `std::function` backward closure; every node — even a
/// constant — carries a gradient buffer. The new executor must reproduce
/// this implementation's forward values and parameter gradients bit for
/// bit, so this file must NOT be "improved": it is the ground truth.
///
/// `replay_on_eager` re-records a `Program` onto an `EagerTape` op by op.
/// Instruction i maps to eager node i, so TensorIds are interchangeable
/// between the two representations.

#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "nn/program.hpp"

namespace ns::testing {

using nn::Matrix;
using nn::Parameter;
using nn::SparseMatrix;
using nn::TensorId;

/// The seed eager tape (renamed). See file comment.
class EagerTape {
 public:
  EagerTape() = default;
  EagerTape(const EagerTape&) = delete;
  EagerTape& operator=(const EagerTape&) = delete;

  TensorId constant(Matrix value) { return push(std::move(value), nullptr); }

  TensorId param(Parameter* p) { return push(p->value, nullptr, p); }

  TensorId matmul(TensorId a, TensorId b) {
    const std::int32_t ai = a.idx, bi = b.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    Matrix y = ns::nn::matmul(value_ref(ai), value_ref(bi));
    return push(std::move(y), [ai, bi, yi](EagerTape& t) {
      const Matrix& dy = t.grad_ref(yi);
      // dA += dY · Bᵀ ; dB += Aᵀ · dY
      t.grad_ref(ai).add_in_place(ns::nn::matmul_a_bt(dy, t.value_ref(bi)));
      t.grad_ref(bi).add_in_place(ns::nn::matmul_at_b(t.value_ref(ai), dy));
    });
  }

  TensorId matmul_at_b(TensorId a, TensorId b) {
    const std::int32_t ai = a.idx, bi = b.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    Matrix y = ns::nn::matmul_at_b(value_ref(ai), value_ref(bi));
    return push(std::move(y), [ai, bi, yi](EagerTape& t) {
      const Matrix& dy = t.grad_ref(yi);
      // Y = Aᵀ·B: dA += B · dYᵀ ; dB += A · dY
      t.grad_ref(ai).add_in_place(ns::nn::matmul_a_bt(t.value_ref(bi), dy));
      t.grad_ref(bi).add_in_place(ns::nn::matmul(t.value_ref(ai), dy));
    });
  }

  TensorId add(TensorId a, TensorId b) {
    const std::int32_t ai = a.idx, bi = b.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    Matrix y = value_ref(ai);
    y.add_in_place(value_ref(bi));
    return push(std::move(y), [ai, bi, yi](EagerTape& t) {
      t.grad_ref(ai).add_in_place(t.grad_ref(yi));
      t.grad_ref(bi).add_in_place(t.grad_ref(yi));
    });
  }

  TensorId sub(TensorId a, TensorId b) {
    const std::int32_t ai = a.idx, bi = b.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    Matrix y = value_ref(ai);
    const Matrix& vb = value_ref(bi);
    for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] -= vb.data()[i];
    return push(std::move(y), [ai, bi, yi](EagerTape& t) {
      const Matrix& dy = t.grad_ref(yi);
      t.grad_ref(ai).add_in_place(dy);
      Matrix& db = t.grad_ref(bi);
      for (std::size_t i = 0; i < db.size(); ++i) db.data()[i] -= dy.data()[i];
    });
  }

  TensorId hadamard(TensorId a, TensorId b) {
    const std::int32_t ai = a.idx, bi = b.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    const Matrix& va = value_ref(ai);
    const Matrix& vb = value_ref(bi);
    assert(va.same_shape(vb));
    Matrix y(va.rows(), va.cols());
    for (std::size_t i = 0; i < y.size(); ++i) {
      y.data()[i] = va.data()[i] * vb.data()[i];
    }
    return push(std::move(y), [ai, bi, yi](EagerTape& t) {
      const Matrix& dy = t.grad_ref(yi);
      const Matrix& va = t.value_ref(ai);
      const Matrix& vb = t.value_ref(bi);
      Matrix& da = t.grad_ref(ai);
      Matrix& db = t.grad_ref(bi);
      for (std::size_t i = 0; i < dy.size(); ++i) {
        da.data()[i] += dy.data()[i] * vb.data()[i];
        db.data()[i] += dy.data()[i] * va.data()[i];
      }
    });
  }

  TensorId scale(TensorId a, float s) {
    const std::int32_t ai = a.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    Matrix y = value_ref(ai);
    y.scale_in_place(s);
    return push(std::move(y), [ai, yi, s](EagerTape& t) {
      const Matrix& dy = t.grad_ref(yi);
      Matrix& da = t.grad_ref(ai);
      for (std::size_t i = 0; i < dy.size(); ++i) {
        da.data()[i] += s * dy.data()[i];
      }
    });
  }

  TensorId add_scalar(TensorId a, float s) {
    const std::int32_t ai = a.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    Matrix y = value_ref(ai);
    for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] += s;
    return push(std::move(y), [ai, yi](EagerTape& t) {
      t.grad_ref(ai).add_in_place(t.grad_ref(yi));
    });
  }

  TensorId reciprocal(TensorId a) {
    const std::int32_t ai = a.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    const Matrix& va = value_ref(ai);
    Matrix y(va.rows(), va.cols());
    for (std::size_t i = 0; i < y.size(); ++i) {
      y.data()[i] = 1.0f / va.data()[i];
    }
    return push(std::move(y), [ai, yi](EagerTape& t) {
      const Matrix& dy = t.grad_ref(yi);
      const Matrix& vy = t.value_ref(yi);
      Matrix& da = t.grad_ref(ai);
      for (std::size_t i = 0; i < dy.size(); ++i) {
        da.data()[i] -= dy.data()[i] * vy.data()[i] * vy.data()[i];
      }
    });
  }

  TensorId relu(TensorId a) {
    const std::int32_t ai = a.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    Matrix y = value_ref(ai);
    for (std::size_t i = 0; i < y.size(); ++i) {
      if (y.data()[i] < 0.0f) y.data()[i] = 0.0f;
    }
    return push(std::move(y), [ai, yi](EagerTape& t) {
      const Matrix& dy = t.grad_ref(yi);
      const Matrix& va = t.value_ref(ai);
      Matrix& da = t.grad_ref(ai);
      for (std::size_t i = 0; i < dy.size(); ++i) {
        if (va.data()[i] > 0.0f) da.data()[i] += dy.data()[i];
      }
    });
  }

  TensorId sigmoid(TensorId a) {
    const std::int32_t ai = a.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    const Matrix& va = value_ref(ai);
    Matrix y(va.rows(), va.cols());
    for (std::size_t i = 0; i < y.size(); ++i) {
      y.data()[i] = 1.0f / (1.0f + std::exp(-va.data()[i]));
    }
    return push(std::move(y), [ai, yi](EagerTape& t) {
      const Matrix& dy = t.grad_ref(yi);
      const Matrix& vy = t.value_ref(yi);
      Matrix& da = t.grad_ref(ai);
      for (std::size_t i = 0; i < dy.size(); ++i) {
        const float s = vy.data()[i];
        da.data()[i] += dy.data()[i] * s * (1.0f - s);
      }
    });
  }

  TensorId tanh_fn(TensorId a) {
    const std::int32_t ai = a.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    const Matrix& va = value_ref(ai);
    Matrix y(va.rows(), va.cols());
    for (std::size_t i = 0; i < y.size(); ++i) {
      y.data()[i] = std::tanh(va.data()[i]);
    }
    return push(std::move(y), [ai, yi](EagerTape& t) {
      const Matrix& dy = t.grad_ref(yi);
      const Matrix& vy = t.value_ref(yi);
      Matrix& da = t.grad_ref(ai);
      for (std::size_t i = 0; i < dy.size(); ++i) {
        const float th = vy.data()[i];
        da.data()[i] += dy.data()[i] * (1.0f - th * th);
      }
    });
  }

  TensorId spmm(const SparseMatrix* s, TensorId x) {
    const std::int32_t xi = x.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    Matrix y = s->multiply(value_ref(xi));
    return push(std::move(y), [s, xi, yi](EagerTape& t) {
      t.grad_ref(xi).add_in_place(s->transposed().multiply(t.grad_ref(yi)));
    });
  }

  TensorId frobenius_normalize(TensorId a) {
    const std::int32_t ai = a.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    const Matrix& va = value_ref(ai);
    const float norm = va.frobenius_norm();
    const float inv = norm > 0.0f ? 1.0f / norm : 0.0f;
    Matrix y = va;
    y.scale_in_place(inv);
    return push(std::move(y), [ai, yi, norm, inv](EagerTape& t) {
      if (norm == 0.0f) return;
      const Matrix& dy = t.grad_ref(yi);
      const Matrix& va = t.value_ref(ai);
      // d/dX (X/‖X‖) : dX = dY/‖X‖ − X · (Σ dY∘X) / ‖X‖³
      double dot = 0.0;
      for (std::size_t i = 0; i < dy.size(); ++i) {
        dot += static_cast<double>(dy.data()[i]) * va.data()[i];
      }
      const float k = static_cast<float>(dot) * inv * inv * inv;
      Matrix& da = t.grad_ref(ai);
      for (std::size_t i = 0; i < dy.size(); ++i) {
        da.data()[i] += dy.data()[i] * inv - va.data()[i] * k;
      }
    });
  }

  TensorId add_row_broadcast(TensorId x, TensorId bias_row) {
    const std::int32_t xi = x.idx, bi = bias_row.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    const Matrix& vx = value_ref(xi);
    const Matrix& vb = value_ref(bi);
    assert(vb.rows() == 1 && vb.cols() == vx.cols());
    Matrix y = vx;
    for (std::size_t r = 0; r < y.rows(); ++r) {
      for (std::size_t c = 0; c < y.cols(); ++c) y.at(r, c) += vb.at(0, c);
    }
    return push(std::move(y), [xi, bi, yi](EagerTape& t) {
      const Matrix& dy = t.grad_ref(yi);
      t.grad_ref(xi).add_in_place(dy);
      Matrix& db = t.grad_ref(bi);
      for (std::size_t r = 0; r < dy.rows(); ++r) {
        for (std::size_t c = 0; c < dy.cols(); ++c) {
          db.at(0, c) += dy.at(r, c);
        }
      }
    });
  }

  TensorId broadcast_row(TensorId row, std::size_t n) {
    const std::int32_t ri = row.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    const Matrix& vr = value_ref(ri);
    assert(vr.rows() == 1);
    Matrix y(n, vr.cols());
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < vr.cols(); ++c) y.at(r, c) = vr.at(0, c);
    }
    return push(std::move(y), [ri, yi](EagerTape& t) {
      const Matrix& dy = t.grad_ref(yi);
      Matrix& dr = t.grad_ref(ri);
      for (std::size_t r = 0; r < dy.rows(); ++r) {
        for (std::size_t c = 0; c < dy.cols(); ++c) {
          dr.at(0, c) += dy.at(r, c);
        }
      }
    });
  }

  TensorId row_mul(TensorId x, TensorId s) {
    const std::int32_t xi = x.idx, si = s.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    const Matrix& vx = value_ref(xi);
    const Matrix& vs = value_ref(si);
    assert(vs.rows() == vx.rows() && vs.cols() == 1);
    Matrix y = vx;
    for (std::size_t r = 0; r < y.rows(); ++r) {
      const float f = vs.at(r, 0);
      for (std::size_t c = 0; c < y.cols(); ++c) y.at(r, c) *= f;
    }
    return push(std::move(y), [xi, si, yi](EagerTape& t) {
      const Matrix& dy = t.grad_ref(yi);
      const Matrix& vx = t.value_ref(xi);
      const Matrix& vs = t.value_ref(si);
      Matrix& dx = t.grad_ref(xi);
      Matrix& ds = t.grad_ref(si);
      for (std::size_t r = 0; r < dy.rows(); ++r) {
        const float f = vs.at(r, 0);
        double acc = 0.0;
        for (std::size_t c = 0; c < dy.cols(); ++c) {
          dx.at(r, c) += dy.at(r, c) * f;
          acc += static_cast<double>(dy.at(r, c)) * vx.at(r, c);
        }
        ds.at(r, 0) += static_cast<float>(acc);
      }
    });
  }

  TensorId scalar_mul(TensorId x, TensorId s) {
    const std::int32_t xi = x.idx, si = s.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    const Matrix& vx = value_ref(xi);
    const Matrix& vs = value_ref(si);
    assert(vs.rows() == 1 && vs.cols() == 1);
    Matrix y = vx;
    y.scale_in_place(vs.at(0, 0));
    return push(std::move(y), [xi, si, yi](EagerTape& t) {
      const Matrix& dy = t.grad_ref(yi);
      const Matrix& vx = t.value_ref(xi);
      const float s = t.value_ref(si).at(0, 0);
      Matrix& dx = t.grad_ref(xi);
      double acc = 0.0;
      for (std::size_t i = 0; i < dy.size(); ++i) {
        dx.data()[i] += dy.data()[i] * s;
        acc += static_cast<double>(dy.data()[i]) * vx.data()[i];
      }
      t.grad_ref(si).at(0, 0) += static_cast<float>(acc);
    });
  }

  TensorId mean_rows(TensorId a) {
    const std::int32_t ai = a.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    const Matrix& va = value_ref(ai);
    assert(va.rows() > 0);
    Matrix y(1, va.cols());
    for (std::size_t r = 0; r < va.rows(); ++r) {
      for (std::size_t c = 0; c < va.cols(); ++c) y.at(0, c) += va.at(r, c);
    }
    const float inv = 1.0f / static_cast<float>(va.rows());
    y.scale_in_place(inv);
    return push(std::move(y), [ai, yi, inv](EagerTape& t) {
      const Matrix& dy = t.grad_ref(yi);
      Matrix& da = t.grad_ref(ai);
      for (std::size_t r = 0; r < da.rows(); ++r) {
        for (std::size_t c = 0; c < da.cols(); ++c) {
          da.at(r, c) += dy.at(0, c) * inv;
        }
      }
    });
  }

  TensorId concat_cols(TensorId a, TensorId b) {
    const std::int32_t ai = a.idx, bi = b.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    const Matrix& va = value_ref(ai);
    const Matrix& vb = value_ref(bi);
    assert(va.rows() == vb.rows());
    Matrix y(va.rows(), va.cols() + vb.cols());
    for (std::size_t r = 0; r < y.rows(); ++r) {
      for (std::size_t c = 0; c < va.cols(); ++c) y.at(r, c) = va.at(r, c);
      for (std::size_t c = 0; c < vb.cols(); ++c) {
        y.at(r, va.cols() + c) = vb.at(r, c);
      }
    }
    return push(std::move(y), [ai, bi, yi](EagerTape& t) {
      const Matrix& dy = t.grad_ref(yi);
      Matrix& da = t.grad_ref(ai);
      Matrix& db = t.grad_ref(bi);
      for (std::size_t r = 0; r < dy.rows(); ++r) {
        for (std::size_t c = 0; c < da.cols(); ++c) da.at(r, c) += dy.at(r, c);
        for (std::size_t c = 0; c < db.cols(); ++c) {
          db.at(r, c) += dy.at(r, da.cols() + c);
        }
      }
    });
  }

  TensorId slice_cols(TensorId a, std::size_t start, std::size_t len) {
    const std::int32_t ai = a.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    const Matrix& va = value_ref(ai);
    assert(start + len <= va.cols());
    Matrix y(va.rows(), len);
    for (std::size_t r = 0; r < va.rows(); ++r) {
      for (std::size_t c = 0; c < len; ++c) y.at(r, c) = va.at(r, start + c);
    }
    return push(std::move(y), [ai, yi, start, len](EagerTape& t) {
      const Matrix& dy = t.grad_ref(yi);
      Matrix& da = t.grad_ref(ai);
      for (std::size_t r = 0; r < dy.rows(); ++r) {
        for (std::size_t c = 0; c < len; ++c) {
          da.at(r, start + c) += dy.at(r, c);
        }
      }
    });
  }

  TensorId permute_rows(TensorId a, std::vector<std::uint32_t> perm) {
    const std::int32_t ai = a.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    const Matrix& va = value_ref(ai);
    assert(perm.size() == va.rows());
    Matrix y(va.rows(), va.cols());
    for (std::size_t r = 0; r < va.rows(); ++r) {
      for (std::size_t c = 0; c < va.cols(); ++c) {
        y.at(r, c) = va.at(perm[r], c);
      }
    }
    return push(std::move(y), [ai, yi, perm = std::move(perm)](EagerTape& t) {
      const Matrix& dy = t.grad_ref(yi);
      Matrix& da = t.grad_ref(ai);
      for (std::size_t r = 0; r < dy.rows(); ++r) {
        for (std::size_t c = 0; c < dy.cols(); ++c) {
          da.at(perm[r], c) += dy.at(r, c);
        }
      }
    });
  }

  TensorId bce_with_logits(TensorId logit, float target,
                           float pos_weight = 1.0f) {
    const std::int32_t li = logit.idx;
    const std::int32_t yi = static_cast<std::int32_t>(nodes_.size());
    const Matrix& vl = value_ref(li);
    assert(vl.rows() == 1 && vl.cols() == 1);
    const float x = vl.at(0, 0);
    // softplus(x) = max(x,0) + log1p(exp(-|x|)), numerically stable.
    const float sp_pos =
        std::max(x, 0.0f) + std::log1p(std::exp(-std::abs(x)));
    const float sp_neg = sp_pos - x;  // softplus(-x)
    const float loss =
        pos_weight * target * sp_neg + (1.0f - target) * sp_pos;
    Matrix y(1, 1);
    y.at(0, 0) = loss;
    return push(std::move(y), [li, yi, target, pos_weight](EagerTape& t) {
      const float x = t.value_ref(li).at(0, 0);
      const float s = 1.0f / (1.0f + std::exp(-x));
      const float dx =
          pos_weight * target * (s - 1.0f) + (1.0f - target) * s;
      t.grad_ref(li).at(0, 0) += t.grad_ref(yi).at(0, 0) * dx;
    });
  }

  const Matrix& value(TensorId id) const { return nodes_[id.idx].value; }
  const Matrix& grad(TensorId id) const { return nodes_[id.idx].grad; }

  void backward(TensorId loss) {
    for (Node& n : nodes_) n.grad.fill(0.0f);
    nodes_[loss.idx].grad.fill(1.0f);
    for (std::int32_t i = static_cast<std::int32_t>(nodes_.size()) - 1;
         i >= 0; --i) {
      if (nodes_[i].backward_fn) nodes_[i].backward_fn(*this);
      if (nodes_[i].bound_param) {
        nodes_[i].bound_param->grad.add_in_place(nodes_[i].grad);
      }
    }
  }

  std::size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    Matrix value;
    Matrix grad;
    std::function<void(EagerTape&)> backward_fn;  ///< nullptr for leaves
    Parameter* bound_param = nullptr;
  };

  TensorId push(Matrix value, std::function<void(EagerTape&)> backward_fn,
                Parameter* bound = nullptr) {
    Node n;
    n.value = std::move(value);
    n.grad = Matrix(n.value.rows(), n.value.cols());
    n.backward_fn = std::move(backward_fn);
    n.bound_param = bound;
    nodes_.push_back(std::move(n));
    return TensorId{static_cast<std::int32_t>(nodes_.size()) - 1};
  }

  Matrix& grad_ref(std::int32_t idx) { return nodes_[idx].grad; }
  const Matrix& value_ref(std::int32_t idx) const {
    return nodes_[idx].value;
  }

  std::vector<Node> nodes_;
};

/// Re-records `prog` onto `eager` instruction by instruction. The eager
/// tape computes forward values as it records, with the parameters' values
/// at call time. Node i of the eager tape corresponds to instruction i of
/// the program, so the program's TensorIds address both.
inline void replay_on_eager(const nn::Program& prog, EagerTape& eager) {
  using nn::Op;
  for (std::size_t i = 0; i < prog.num_insts(); ++i) {
    const nn::Inst& in = prog.inst(i);
    const TensorId a{in.a}, b{in.b};
    TensorId y{};
    switch (in.op) {
      case Op::kConstant: y = eager.constant(prog.literal(in.u0)); break;
      case Op::kParam: y = eager.param(in.param); break;
      case Op::kMatmul: y = eager.matmul(a, b); break;
      case Op::kMatmulAtB: y = eager.matmul_at_b(a, b); break;
      case Op::kAdd: y = eager.add(a, b); break;
      case Op::kSub: y = eager.sub(a, b); break;
      case Op::kHadamard: y = eager.hadamard(a, b); break;
      case Op::kAddScalar: y = eager.add_scalar(a, in.f0); break;
      case Op::kReciprocal: y = eager.reciprocal(a); break;
      case Op::kRelu: y = eager.relu(a); break;
      case Op::kSigmoid: y = eager.sigmoid(a); break;
      case Op::kTanh: y = eager.tanh_fn(a); break;
      case Op::kSpmm: y = eager.spmm(in.sparse, a); break;
      case Op::kFrobeniusNormalize: y = eager.frobenius_normalize(a); break;
      case Op::kAddRowBroadcast: y = eager.add_row_broadcast(a, b); break;
      case Op::kBroadcastRow: y = eager.broadcast_row(a, in.u0); break;
      case Op::kRowMul: y = eager.row_mul(a, b); break;
      case Op::kScalarMul: y = eager.scalar_mul(a, b); break;
      case Op::kMeanRows: y = eager.mean_rows(a); break;
      case Op::kConcatCols: y = eager.concat_cols(a, b); break;
      case Op::kSliceCols: y = eager.slice_cols(a, in.u0, in.u1); break;
      case Op::kPermuteRows: y = eager.permute_rows(a, prog.perm(in.u0)); break;
      case Op::kBceWithLogits:
        y = eager.bce_with_logits(a, in.f0, in.f1);
        break;
    }
    assert(y.idx == static_cast<std::int32_t>(i));
    (void)y;
  }
}

}  // namespace ns::testing
