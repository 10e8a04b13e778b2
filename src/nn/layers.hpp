#pragma once
/// \file layers.hpp
/// Trainable building blocks that record onto a `Program`: Linear, MLP,
/// LSTM cell (for the NeuroSAT baseline), and the Adam optimizer used by
/// the paper (lr = 1e-4).

#include <cstdint>
#include <random>
#include <vector>

#include "nn/program.hpp"

namespace ns::nn {

/// Anything that owns Parameters exposes them through this interface so
/// optimizers and serializers can walk the whole model uniformly.
class Module {
 public:
  virtual ~Module() = default;

  /// Appends pointers to all owned parameters.
  virtual void collect_parameters(std::vector<Parameter*>& out) = 0;

  /// Convenience: all parameters as a fresh vector.
  std::vector<Parameter*> parameters() {
    std::vector<Parameter*> out;
    collect_parameters(out);
    return out;
  }
};

/// Fully connected layer: Y = X·W + b.
class Linear : public Module {
 public:
  Linear() = default;
  Linear(std::size_t in, std::size_t out, std::mt19937_64& rng)
      : weight_(Matrix::xavier(in, out, rng)), bias_(Matrix(1, out)) {}

  TensorId forward(Program& prog, TensorId x) {
    const TensorId w = prog.param(&weight_);
    const TensorId b = prog.param(&bias_);
    return prog.add_row_broadcast(prog.matmul(x, w), b);
  }

  void collect_parameters(std::vector<Parameter*>& out) override {
    out.push_back(&weight_);
    out.push_back(&bias_);
  }

  std::size_t in_features() const { return weight_.value.rows(); }
  std::size_t out_features() const { return weight_.value.cols(); }

 private:
  Parameter weight_;
  Parameter bias_;
};

/// Multi-layer perceptron with ReLU between layers (none after the last).
class Mlp : public Module {
 public:
  Mlp() = default;

  /// `dims` = {in, hidden..., out}; must have >= 2 entries.
  Mlp(const std::vector<std::size_t>& dims, std::mt19937_64& rng) {
    for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
      layers_.emplace_back(dims[i], dims[i + 1], rng);
    }
  }

  TensorId forward(Program& prog, TensorId x) {
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      x = layers_[i].forward(prog, x);
      if (i + 1 < layers_.size()) x = prog.relu(x);
    }
    return x;
  }

  void collect_parameters(std::vector<Parameter*>& out) override {
    for (Linear& l : layers_) l.collect_parameters(out);
  }

 private:
  std::vector<Linear> layers_;
};

/// A standard LSTM cell operating on row-batched states. Gate order in the
/// packed projection: input, forget, cell candidate, output.
class LstmCell : public Module {
 public:
  LstmCell() = default;
  LstmCell(std::size_t input_dim, std::size_t hidden_dim, std::mt19937_64& rng)
      : hidden_dim_(hidden_dim),
        wx_(input_dim, 4 * hidden_dim, rng),
        wh_(hidden_dim, 4 * hidden_dim, rng) {}

  struct State {
    TensorId h;
    TensorId c;
  };

  /// One step: (x, h, c) -> (h', c').
  State forward(Program& prog, TensorId x, State prev) {
    const TensorId zx = wx_.forward(prog, x);
    const TensorId zh = wh_.forward(prog, prev.h);
    const TensorId z = prog.add(zx, zh);
    const std::size_t d = hidden_dim_;
    const TensorId i = prog.sigmoid(prog.slice_cols(z, 0, d));
    const TensorId f = prog.sigmoid(prog.slice_cols(z, d, d));
    const TensorId g = prog.tanh_fn(prog.slice_cols(z, 2 * d, d));
    const TensorId o = prog.sigmoid(prog.slice_cols(z, 3 * d, d));
    const TensorId c =
        prog.add(prog.hadamard(f, prev.c), prog.hadamard(i, g));
    const TensorId h = prog.hadamard(o, prog.tanh_fn(c));
    return State{h, c};
  }

  void collect_parameters(std::vector<Parameter*>& out) override {
    wx_.collect_parameters(out);
    wh_.collect_parameters(out);
  }

  std::size_t hidden_dim() const { return hidden_dim_; }

 private:
  std::size_t hidden_dim_ = 0;
  Linear wx_;
  Linear wh_;
};

/// Adam optimizer (Kingma & Ba). State is kept per parameter inside the
/// optimizer, keyed by pointer order, so the parameter list must be stable
/// across steps.
class Adam {
 public:
  explicit Adam(std::vector<Parameter*> params, float lr = 1e-4f,
                float beta1 = 0.9f, float beta2 = 0.999f, float eps = 1e-8f);

  /// Applies one update from the accumulated gradients, then zeroes them.
  void step();

  /// Zeroes all parameter gradients without updating.
  void zero_grad();

  float learning_rate() const { return lr_; }
  void set_learning_rate(float lr) { lr_ = lr; }

 private:
  std::vector<Parameter*> params_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  float lr_, beta1_, beta2_, eps_;
  std::int64_t t_ = 0;
};

}  // namespace ns::nn
