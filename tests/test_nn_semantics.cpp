/// Semantic contracts of the autograd engine that the gradcheck sweeps do
/// not cover: gradient accumulation across programs, leaf isolation, op
/// edge cases, and attention-specific numerical properties.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "gradcheck.hpp"
#include "nn/executor.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"

namespace ns::nn {
namespace {

using ns::testing::forward_value;

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
