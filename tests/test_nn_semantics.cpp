/// Semantic contracts of the autograd engine that the gradcheck sweeps do
/// not cover: gradient accumulation across programs, leaf isolation, op
/// edge cases, and attention-specific numerical properties.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "gradcheck.hpp"
#include "nn/executor.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"

namespace ns::nn {
namespace {

using ns::testing::forward_value;

std::uint32_t bits(float x) {
  std::uint32_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// The NaN this host's arithmetic produces (0·inf). Every NaN input is this
/// one, so a result's NaN bits do not depend on which of two NaN operands
/// an instruction propagates.
float host_nan() {
  volatile float zero = 0.0f;
  volatile float inf = std::numeric_limits<float>::infinity();
  return zero * inf;
}

/// A rows×cols matrix whose even flat indices cycle through -0.0, +0.0, a
/// subnormal, +inf, -inf and the host NaN, starting `phase` places into the
/// cycle, between Uniform(-2, 2) entries. Index 0 of phase 0 is -0.0.
Matrix special_matrix(std::size_t rows, std::size_t cols, std::size_t phase,
                      std::mt19937& rng) {
  const float specials[] = {-0.0f,
                            0.0f,
                            std::numeric_limits<float>::denorm_min() * 37.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            host_nan()};
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = i % 2 == 0 ? specials[(i / 2 + phase) % 6] : dist(rng);
  }
  return m;
}

TEST(TapeSemanticsTest, ParameterGradientsAccumulateAcrossTapes) {
  Parameter w(Matrix::ones(1, 1));
  for (int i = 0; i < 3; ++i) {
    Program prog;
    const TensorId x = prog.param(&w);
    const TensorId loss = prog.add(x, x);
    Executor(prog, ExecMode::kTraining).backward(loss);
  }
  // d(2w)/dw = 2, accumulated three times.
  EXPECT_FLOAT_EQ(w.grad.at(0, 0), 6.0f);
}

TEST(TapeSemanticsTest, ParamNodeBindsLiveValue) {
  // Parameter leaves bind live: each execution reads the value as it is at
  // that moment, which is what makes one recorded program re-runnable
  // across optimizer steps.
  Parameter w(Matrix::ones(1, 1));
  Program prog;
  const TensorId x = prog.param(&w);
  const TensorId y = prog.add(x, x);
  Executor exec(prog, ExecMode::kTraining);
  exec.forward();
  EXPECT_FLOAT_EQ(exec.value(y).at(0, 0), 2.0f);
  w.value.at(0, 0) = 21.0f;  // "optimizer step"
  exec.forward();            // same program, fresh inputs
  EXPECT_FLOAT_EQ(exec.value(y).at(0, 0), 42.0f);
}

TEST(TapeSemanticsTest, ConstantsReceiveNoParameterGradient) {
  Parameter w(Matrix::ones(1, 1));
  Program prog;
  const TensorId c = prog.constant(Matrix::ones(1, 1));
  const TensorId x = prog.param(&w);
  const TensorId loss = prog.hadamard(c, x);
  Executor(prog, ExecMode::kTraining).backward(loss);
  EXPECT_FLOAT_EQ(w.grad.at(0, 0), 1.0f);  // only via the param leaf
}

TEST(TapeSemanticsTest, SharedSubexpressionGetsSummedGradient) {
  // loss = x*x (x used twice) -> d/dx = 2x.
  Parameter w(Matrix(1, 1));
  w.value.at(0, 0) = 3.0f;
  Program prog;
  const TensorId x = prog.param(&w);
  const TensorId loss = prog.hadamard(x, x);
  Executor(prog, ExecMode::kTraining).backward(loss);
  EXPECT_FLOAT_EQ(w.grad.at(0, 0), 6.0f);
}

TEST(TapeSemanticsTest, BroadcastRowOfOneRowIsIdentity) {
  Program prog;
  Matrix row(1, 3);
  row.at(0, 0) = 1;
  row.at(0, 1) = 2;
  row.at(0, 2) = 3;
  const TensorId r = prog.constant(row);
  const TensorId b = prog.broadcast_row(r, 1);
  EXPECT_LT(max_abs_diff(forward_value(prog, b), row), 1e-9f);
}

TEST(TapeSemanticsTest, MeanRowsOfSingleRowIsIdentity) {
  Program prog;
  Matrix row(1, 4, 2.5f);
  const TensorId m = prog.mean_rows(prog.constant(row));
  EXPECT_LT(max_abs_diff(forward_value(prog, m), row), 1e-9f);
}

TEST(TapeSemanticsTest, SliceOfFullRangeIsIdentity) {
  std::mt19937_64 rng(3);
  const Matrix x = Matrix::xavier(3, 5, rng);
  Program prog;
  const TensorId s = prog.slice_cols(prog.constant(x), 0, 5);
  EXPECT_LT(max_abs_diff(forward_value(prog, s), x), 1e-9f);
}

TEST(TapeSemanticsTest, FrobeniusNormalizeGivesUnitNorm) {
  std::mt19937_64 rng(5);
  Program prog;
  const TensorId y =
      prog.frobenius_normalize(prog.constant(Matrix::xavier(6, 4, rng)));
  EXPECT_NEAR(forward_value(prog, y).frobenius_norm(), 1.0f, 1e-5f);
}

TEST(TapeSemanticsTest, FrobeniusNormalizeOfZeroIsZero) {
  Program prog;
  const TensorId y = prog.frobenius_normalize(prog.constant(Matrix(2, 2)));
  EXPECT_FLOAT_EQ(forward_value(prog, y).at(0, 0), 0.0f);
}

TEST(TapeSemanticsTest, WeightedBceMatchesUnweightedAtOne) {
  for (float target : {0.0f, 1.0f}) {
    Program prog;
    Matrix logit(1, 1);
    logit.at(0, 0) = 0.7f;
    const TensorId l = prog.constant(logit);
    const TensorId a = prog.bce_with_logits(l, target);
    const TensorId b = prog.bce_with_logits(l, target, 1.0f);
    EXPECT_FLOAT_EQ(forward_value(prog, a).at(0, 0),
                    forward_value(prog, b).at(0, 0));
  }
}

TEST(TapeSemanticsTest, PositiveWeightScalesOnlyPositiveTerm) {
  Matrix logit(1, 1);
  logit.at(0, 0) = -0.3f;
  Program prog;
  const TensorId l = prog.constant(logit);
  const TensorId pos1 = prog.bce_with_logits(l, 1.0f, 1.0f);
  const TensorId pos3 = prog.bce_with_logits(l, 1.0f, 3.0f);
  const TensorId neg1 = prog.bce_with_logits(l, 0.0f, 1.0f);
  const TensorId neg3 = prog.bce_with_logits(l, 0.0f, 3.0f);
  Executor exec(prog, ExecMode::kTraining);
  exec.forward();
  EXPECT_NEAR(exec.value(pos3).at(0, 0), 3.0f * exec.value(pos1).at(0, 0),
              1e-5f);
  // The weight must not touch the negative term.
  EXPECT_FLOAT_EQ(exec.value(neg3).at(0, 0), exec.value(neg1).at(0, 0));
}

// The executor's elementwise ops are plain loops that the compiler may
// vectorize at any lane count, with scalar epilogues. The widths straddle
// the 8-, 16- and 32-lane boundaries, and every output must equal the op's
// scalar expression bit for bit with ±0, subnormal, ±inf and NaN operands:
// relu keeps -0.0, -0.0 + 0.0 is +0.0, and inf + -inf and 0·inf give the
// host NaN.
TEST(ElementwiseOpsTest, InferenceExecutorMatchesScalarExpressionsBitwise) {
  std::mt19937 rng(41);
  const std::size_t kWidths[] = {1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100};
  const float kScalars[] = {-0.0f, 0.75f,
                            -std::numeric_limits<float>::infinity()};
  const std::size_t rows = 3;
  for (const std::size_t n : kWidths) {
    const Matrix a = special_matrix(1, n, 0, rng);
    const Matrix b = special_matrix(1, n, 1, rng);
    const Matrix x = special_matrix(rows, n, 2, rng);
    const Matrix bias = special_matrix(1, n, 4, rng);
    const Matrix s = special_matrix(rows, 1, 3, rng);

    Program prog;
    const TensorId ta = prog.constant(a);
    const TensorId tb = prog.constant(b);
    const TensorId tx = prog.constant(x);
    const TensorId relu = prog.relu(ta);
    const TensorId add = prog.add(ta, tb);
    const TensorId sub = prog.sub(ta, tb);
    const TensorId hadamard = prog.hadamard(ta, tb);
    std::vector<TensorId> add_scalar;
    for (const float c : kScalars) add_scalar.push_back(prog.add_scalar(ta, c));
    const TensorId bias_add =
        prog.add_row_broadcast(tx, prog.constant(bias));
    const TensorId row_mul = prog.row_mul(tx, prog.constant(s));
    Executor exec(prog, ExecMode::kInference);
    exec.forward();

    const auto expect = [&](TensorId id, const std::string& op,
                            const auto& scalar) {
      const Matrix& y = exec.value(id);
      for (std::size_t r = 0; r < y.rows(); ++r) {
        for (std::size_t c = 0; c < y.cols(); ++c) {
          ASSERT_EQ(bits(y.at(r, c)), bits(scalar(r, c)))
              << op << " width " << n << " at (" << r << ", " << c
              << "): " << y.at(r, c) << " vs " << scalar(r, c);
        }
      }
    };
    expect(relu, "relu", [&](std::size_t r, std::size_t c) {
      const float v = a.at(r, c);
      return v < 0.0f ? 0.0f : v;
    });
    expect(add, "add", [&](std::size_t r, std::size_t c) {
      return a.at(r, c) + b.at(r, c);
    });
    expect(sub, "sub", [&](std::size_t r, std::size_t c) {
      return a.at(r, c) - b.at(r, c);
    });
    expect(hadamard, "hadamard", [&](std::size_t r, std::size_t c) {
      return a.at(r, c) * b.at(r, c);
    });
    for (std::size_t k = 0; k < add_scalar.size(); ++k) {
      expect(add_scalar[k], "add_scalar " + std::to_string(kScalars[k]),
             [&](std::size_t r, std::size_t c) {
               return a.at(r, c) + kScalars[k];
             });
    }
    expect(bias_add, "add_row_broadcast", [&](std::size_t r, std::size_t c) {
      return x.at(r, c) + bias.at(0, c);
    });
    expect(row_mul, "row_mul", [&](std::size_t r, std::size_t c) {
      return x.at(r, c) * s.at(r, 0);
    });
  }
}

TEST(LinearAttentionSemanticsTest, DiagonalStaysPositive) {
  // D = diag(1 + (1/N) Q̃ K̃ᵀ 1): since ‖Q̃‖_F = ‖K̃‖_F = 1, each entry of
  // the correction is bounded by 1 in magnitude, so D entries stay > 0 and
  // the reciprocal is safe. Verify over random inputs.
  std::mt19937_64 rng(7);
  LinearAttention attn(6, rng);
  for (int round = 0; round < 10; ++round) {
    Program prog;
    Matrix z = Matrix::xavier(9, 6, rng);
    z.scale_in_place(10.0f);  // exaggerate magnitudes
    const TensorId out = attn.forward(prog, prog.constant(z));
    const Matrix v = forward_value(prog, out);
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_TRUE(std::isfinite(v.data()[i]));
    }
  }
}

TEST(LinearAttentionSemanticsTest, PermutationEquivariant) {
  // Global attention has no positional structure: permuting the input rows
  // must permute the output rows identically.
  std::mt19937_64 rng(11);
  LinearAttention attn(4, rng);
  const Matrix z = Matrix::xavier(5, 4, rng);
  const std::vector<std::uint32_t> perm = {3, 1, 4, 0, 2};

  Program prog;
  const TensorId direct =
      prog.permute_rows(attn.forward(prog, prog.constant(z)), perm);
  const TensorId swapped =
      attn.forward(prog, prog.permute_rows(prog.constant(z), perm));
  EXPECT_LT(max_abs_diff(forward_value(prog, direct),
                         forward_value(prog, swapped)),
            1e-5f);
}

}  // namespace
}  // namespace ns::nn
