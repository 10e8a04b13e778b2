/// Semantic contracts of the autograd engine that the gradcheck sweeps do
/// not cover: gradient accumulation across tapes, leaf isolation, op edge
/// cases, and attention-specific numerical properties.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "nn/layers.hpp"
#include "nn/models.hpp"
#include "nn/tape.hpp"

namespace ns::nn {
namespace {

TEST(TapeSemanticsTest, ParameterGradientsAccumulateAcrossTapes) {
  Parameter w(Matrix::ones(1, 1));
  for (int i = 0; i < 3; ++i) {
    Tape tape;
    const TensorId x = tape.param(&w);
    const TensorId loss = tape.add(x, x);
    tape.backward(loss);
  }
  // d(2w)/dw = 2, accumulated three times.
  EXPECT_FLOAT_EQ(w.grad.at(0, 0), 6.0f);
}

TEST(TapeSemanticsTest, ParamNodeBindsLiveValue) {
  // Parameter leaves bind live: each execution reads the value as it is at
  // that moment, which is what makes one recorded program re-runnable
  // across optimizer steps.
  Parameter w(Matrix::ones(1, 1));
  Tape tape;
  const TensorId x = tape.param(&w);
  const TensorId y = tape.add(x, x);
  Executor exec(tape.program(), ExecMode::kTraining);
  exec.forward();
  EXPECT_FLOAT_EQ(exec.value(y).at(0, 0), 2.0f);
  w.value.at(0, 0) = 21.0f;  // "optimizer step"
  exec.forward();            // same program, fresh inputs
  EXPECT_FLOAT_EQ(exec.value(y).at(0, 0), 42.0f);
}

TEST(TapeSemanticsTest, ConstantsReceiveNoParameterGradient) {
  Parameter w(Matrix::ones(1, 1));
  Tape tape;
  const TensorId c = tape.constant(Matrix::ones(1, 1));
  const TensorId x = tape.param(&w);
  const TensorId loss = tape.hadamard(c, x);
  tape.backward(loss);
  EXPECT_FLOAT_EQ(w.grad.at(0, 0), 1.0f);  // only via the param leaf
}

TEST(TapeSemanticsTest, SharedSubexpressionGetsSummedGradient) {
  // loss = x*x (x used twice) -> d/dx = 2x.
  Parameter w(Matrix(1, 1));
  w.value.at(0, 0) = 3.0f;
  Tape tape;
  const TensorId x = tape.param(&w);
  tape.backward(tape.hadamard(x, x));
  EXPECT_FLOAT_EQ(w.grad.at(0, 0), 6.0f);
}

TEST(TapeSemanticsTest, BroadcastRowOfOneRowIsIdentity) {
  Tape tape;
  Matrix row(1, 3);
  row.at(0, 0) = 1;
  row.at(0, 1) = 2;
  row.at(0, 2) = 3;
  const TensorId r = tape.constant(row);
  const TensorId b = tape.broadcast_row(r, 1);
  EXPECT_LT(max_abs_diff(tape.value(b), row), 1e-9f);
}

TEST(TapeSemanticsTest, MeanRowsOfSingleRowIsIdentity) {
  Tape tape;
  Matrix row(1, 4, 2.5f);
  const TensorId m = tape.mean_rows(tape.constant(row));
  EXPECT_LT(max_abs_diff(tape.value(m), row), 1e-9f);
}

TEST(TapeSemanticsTest, SliceOfFullRangeIsIdentity) {
  std::mt19937_64 rng(3);
  const Matrix x = Matrix::xavier(3, 5, rng);
  Tape tape;
  const TensorId s = tape.slice_cols(tape.constant(x), 0, 5);
  EXPECT_LT(max_abs_diff(tape.value(s), x), 1e-9f);
}

TEST(TapeSemanticsTest, FrobeniusNormalizeGivesUnitNorm) {
  std::mt19937_64 rng(5);
  Tape tape;
  const TensorId y =
      tape.frobenius_normalize(tape.constant(Matrix::xavier(6, 4, rng)));
  EXPECT_NEAR(tape.value(y).frobenius_norm(), 1.0f, 1e-5f);
}

TEST(TapeSemanticsTest, FrobeniusNormalizeOfZeroIsZero) {
  Tape tape;
  const TensorId y = tape.frobenius_normalize(tape.constant(Matrix(2, 2)));
  EXPECT_FLOAT_EQ(tape.value(y).at(0, 0), 0.0f);
}

TEST(TapeSemanticsTest, WeightedBceMatchesUnweightedAtOne) {
  for (float target : {0.0f, 1.0f}) {
    Tape t1, t2;
    Matrix logit(1, 1);
    logit.at(0, 0) = 0.7f;
    const float a =
        t1.value(t1.bce_with_logits(t1.constant(logit), target)).at(0, 0);
    const float b =
        t2.value(t2.bce_with_logits(t2.constant(logit), target, 1.0f))
            .at(0, 0);
    EXPECT_FLOAT_EQ(a, b);
  }
}

TEST(TapeSemanticsTest, PositiveWeightScalesOnlyPositiveTerm) {
  Matrix logit(1, 1);
  logit.at(0, 0) = -0.3f;
  Tape t1, t2, t3;
  const float pos1 =
      t1.value(t1.bce_with_logits(t1.constant(logit), 1.0f, 1.0f)).at(0, 0);
  const float pos3 =
      t2.value(t2.bce_with_logits(t2.constant(logit), 1.0f, 3.0f)).at(0, 0);
  EXPECT_NEAR(pos3, 3.0f * pos1, 1e-5f);
  const float neg3 =
      t3.value(t3.bce_with_logits(t3.constant(logit), 0.0f, 3.0f)).at(0, 0);
  Tape t4;
  const float neg1 =
      t4.value(t4.bce_with_logits(t4.constant(logit), 0.0f, 1.0f)).at(0, 0);
  EXPECT_FLOAT_EQ(neg3, neg1);  // weight must not touch the negative term
}

TEST(LinearAttentionSemanticsTest, DiagonalStaysPositive) {
  // D = diag(1 + (1/N) Q̃ K̃ᵀ 1): since ‖Q̃‖_F = ‖K̃‖_F = 1, each entry of
  // the correction is bounded by 1 in magnitude, so D entries stay > 0 and
  // the reciprocal is safe. Verify over random inputs.
  std::mt19937_64 rng(7);
  LinearAttention attn(6, rng);
  for (int round = 0; round < 10; ++round) {
    Tape tape;
    Matrix z = Matrix::xavier(9, 6, rng);
    z.scale_in_place(10.0f);  // exaggerate magnitudes
    const TensorId out = attn.forward(tape, tape.constant(z));
    for (std::size_t i = 0; i < tape.value(out).size(); ++i) {
      EXPECT_TRUE(std::isfinite(tape.value(out).data()[i]));
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

  Tape t1;
  const TensorId direct =
      t1.permute_rows(attn.forward(t1, t1.constant(z)), perm);
  Tape t2;
  const TensorId swapped =
      attn.forward(t2, t2.permute_rows(t2.constant(z), perm));
  EXPECT_LT(max_abs_diff(t1.value(direct), t2.value(swapped)), 1e-5f);
}

}  // namespace
}  // namespace ns::nn
