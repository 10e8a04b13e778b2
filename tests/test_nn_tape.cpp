#include <gtest/gtest.h>

#include <random>

#include "gradcheck.hpp"
#include "nn/executor.hpp"
#include "nn/layers.hpp"
#include "nn/matrix.hpp"
#include "nn/sparse.hpp"

namespace ns::nn {
namespace {

using ns::testing::expect_gradients_match;
using ns::testing::forward_value;

Matrix filled(std::size_t r, std::size_t c, float base, float step) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = base + step * static_cast<float>(i);
  }
  return m;
}

/// Distinct-weight scalarization so gradcheck catches index/transpose bugs.
TensorId weighted_scalar(Program& prog, TensorId x) {
  Matrix w(prog.rows(x), prog.cols(x));
  for (std::size_t i = 0; i < w.size(); ++i) {
    w.data()[i] = 0.05f * static_cast<float>(i + 1);
  }
  const TensorId weighted = prog.hadamard(x, prog.constant(std::move(w)));
  const TensorId pooled = prog.mean_rows(weighted);  // 1×c
  const TensorId ones = prog.constant(Matrix::ones(prog.cols(x), 1));
  return prog.matmul(pooled, ones);  // 1×1
}

// --- Matrix kernels ----------------------------------------------------------

TEST(MatrixTest, MatmulAgainstHandComputed) {
  Matrix a(2, 3);
  a.at(0, 0) = 1;  a.at(0, 1) = 2;  a.at(0, 2) = 3;
  a.at(1, 0) = 4;  a.at(1, 1) = 5;  a.at(1, 2) = 6;
  Matrix b(3, 2);
  b.at(0, 0) = 7;  b.at(0, 1) = 8;
  b.at(1, 0) = 9;  b.at(1, 1) = 10;
  b.at(2, 0) = 11; b.at(2, 1) = 12;
  const Matrix c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154);
}

TEST(MatrixTest, TransposedVariantsAgree) {
  std::mt19937_64 rng(3);
  const Matrix a = Matrix::xavier(4, 3, rng);
  const Matrix b = Matrix::xavier(4, 5, rng);
  // Aᵀ·B via matmul_at_b must equal explicit transpose multiply.
  Matrix at(3, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  }
  EXPECT_LT(max_abs_diff(matmul_at_b(a, b), matmul(at, b)), 1e-6f);

  // A·Bᵀ via matmul_a_bt must equal multiply by the explicit transpose.
  const Matrix d = Matrix::xavier(2, 5, rng);
  const Matrix e = Matrix::xavier(3, 5, rng);
  Matrix et(5, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) et.at(j, i) = e.at(i, j);
  }
  EXPECT_LT(max_abs_diff(matmul_a_bt(d, e), matmul(d, et)), 1e-6f);
}

TEST(MatrixTest, XavierIsDeterministicInSeed) {
  std::mt19937_64 r1(9), r2(9);
  const Matrix a = Matrix::xavier(3, 3, r1);
  const Matrix b = Matrix::xavier(3, 3, r2);
  EXPECT_EQ(max_abs_diff(a, b), 0.0f);
}

TEST(MatrixTest, FrobeniusNormAndSum) {
  Matrix m(1, 2);
  m.at(0, 0) = 3.0f;
  m.at(0, 1) = 4.0f;
  EXPECT_FLOAT_EQ(m.frobenius_norm(), 5.0f);
  EXPECT_FLOAT_EQ(m.sum(), 7.0f);
}

// --- Sparse ---------------------------------------------------------------------

TEST(SparseTest, MultiplyMatchesDense) {
  // S = [[1, 0, -1], [0, 2, 0]]
  const SparseMatrix s = SparseMatrix::from_coo(
      2, 3, {0, 0, 1}, {0, 2, 1}, {1.0f, -1.0f, 2.0f});
  const Matrix x = filled(3, 2, 1.0f, 1.0f);  // rows: [1,2],[3,4],[5,6]
  const Matrix y = s.multiply(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1.0f - 5.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2.0f - 6.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 6.0f);
  EXPECT_FLOAT_EQ(y.at(1, 1), 8.0f);
}

TEST(SparseTest, TransposeRoundTrip) {
  const SparseMatrix s = SparseMatrix::from_coo(
      2, 3, {0, 0, 1}, {0, 2, 1}, {1.0f, -1.0f, 2.0f});
  const SparseMatrix stt = s.transposed().transposed();
  const Matrix x = filled(3, 2, 0.5f, 0.25f);
  EXPECT_LT(max_abs_diff(s.multiply(x), stt.multiply(x)), 1e-6f);
}

TEST(SparseTest, DegreeNormalizationAveragesRows) {
  SparseMatrix s = SparseMatrix::from_coo(
      1, 3, {0, 0, 0}, {0, 1, 2}, {1.0f, 1.0f, 1.0f});
  s.normalize_rows_by_degree();
  const Matrix x = filled(3, 1, 3.0f, 3.0f);  // 3, 6, 9
  EXPECT_FLOAT_EQ(s.multiply(x).at(0, 0), 6.0f);
}

TEST(SparseTest, DuplicateEntriesAreKeptAdditive) {
  const SparseMatrix s =
      SparseMatrix::from_coo(1, 1, {0, 0}, {0, 0}, {1.0f, 2.0f});
  const Matrix x = Matrix::ones(1, 1);
  EXPECT_FLOAT_EQ(s.multiply(x).at(0, 0), 3.0f);
}

// --- gradient checks, one op at a time ---------------------------------------------

TEST(GradCheckTest, Matmul) {
  Parameter a(filled(3, 4, -0.3f, 0.11f));
  Parameter b(filled(4, 2, 0.2f, -0.07f));
  expect_gradients_match({&a, &b}, [&](Program& t) {
    return weighted_scalar(t, t.matmul(t.param(&a), t.param(&b)));
  });
}

TEST(GradCheckTest, MatmulAtB) {
  Parameter a(filled(4, 3, -0.2f, 0.09f));
  Parameter b(filled(4, 2, 0.3f, -0.05f));
  expect_gradients_match({&a, &b}, [&](Program& t) {
    return weighted_scalar(t, t.matmul_at_b(t.param(&a), t.param(&b)));
  });
}

TEST(GradCheckTest, AddSubHadamard) {
  Parameter a(filled(2, 3, 0.4f, 0.13f));
  Parameter b(filled(2, 3, -0.2f, 0.08f));
  expect_gradients_match({&a, &b}, [&](Program& t) {
    const TensorId sum = t.add(t.param(&a), t.param(&b));
    const TensorId diff = t.sub(sum, t.param(&b));
    return weighted_scalar(t, t.hadamard(diff, t.param(&b)));
  });
}

TEST(GradCheckTest, ScaleAddScalarReciprocal) {
  Parameter a(filled(2, 2, 1.0f, 0.3f));  // positive, away from 0
  expect_gradients_match({&a}, [&](Program& t) {
    const TensorId scaled =
        t.scalar_mul(t.param(&a), t.constant(Matrix(1, 1, 0.7f)));
    return weighted_scalar(t, t.reciprocal(t.add_scalar(scaled, 1.5f)));
  });
}

TEST(GradCheckTest, Activations) {
  Parameter a(filled(2, 3, -0.8f, 0.31f));
  expect_gradients_match({&a}, [&](Program& t) {
    const TensorId s = t.sigmoid(t.param(&a));
    const TensorId h = t.tanh_fn(s);
    return weighted_scalar(t, h);
  });
}

TEST(GradCheckTest, ReluAwayFromKink) {
  Parameter a(filled(2, 3, -0.83f, 0.31f));  // entries away from 0
  expect_gradients_match({&a}, [&](Program& t) {
    return weighted_scalar(t, t.relu(t.param(&a)));
  });
}

TEST(GradCheckTest, Spmm) {
  const SparseMatrix s = SparseMatrix::from_coo(
      3, 4, {0, 0, 1, 2, 2}, {0, 3, 1, 2, 0}, {1.0f, -1.0f, 0.5f, 2.0f, 1.0f});
  Parameter x(filled(4, 2, -0.4f, 0.17f));
  expect_gradients_match({&x}, [&](Program& t) {
    return weighted_scalar(t, t.spmm(&s, t.param(&x)));
  });
}

TEST(GradCheckTest, FrobeniusNormalize) {
  Parameter a(filled(3, 2, 0.5f, 0.21f));
  expect_gradients_match({&a}, [&](Program& t) {
    return weighted_scalar(t, t.frobenius_normalize(t.param(&a)));
  });
}

TEST(GradCheckTest, Broadcasts) {
  Parameter row(filled(1, 3, 0.2f, 0.1f));
  Parameter x(filled(4, 3, -0.1f, 0.06f));
  expect_gradients_match({&row, &x}, [&](Program& t) {
    const TensorId bc = t.broadcast_row(t.param(&row), 4);
    return weighted_scalar(
        t, t.add_row_broadcast(t.add(t.param(&x), bc), t.param(&row)));
  });
}

TEST(GradCheckTest, ScalarMul) {
  Parameter x(filled(3, 2, 0.2f, 0.11f));
  Parameter s(filled(1, 1, 0.6f, 0.0f));
  expect_gradients_match({&x, &s}, [&](Program& t) {
    return weighted_scalar(t, t.scalar_mul(t.param(&x), t.param(&s)));
  });
}

TEST(GradCheckTest, ScalarMulFromZeroGate) {
  // The ReZero gate starts at exactly 0; its gradient must still flow.
  Parameter x(filled(2, 2, 0.3f, 0.17f));
  Parameter s(Matrix::zeros(1, 1));
  expect_gradients_match({&x, &s}, [&](Program& t) {
    const TensorId gated = t.scalar_mul(t.param(&x), t.param(&s));
    return weighted_scalar(t, t.add(gated, t.param(&x)));
  });
}

TEST(GradCheckTest, RowMul) {
  Parameter x(filled(3, 2, 0.3f, 0.12f));
  Parameter s(filled(3, 1, 0.5f, 0.25f));
  expect_gradients_match({&x, &s}, [&](Program& t) {
    return weighted_scalar(t, t.row_mul(t.param(&x), t.param(&s)));
  });
}

TEST(GradCheckTest, ConcatSlicePermute) {
  Parameter a(filled(3, 2, 0.1f, 0.14f));
  Parameter b(filled(3, 2, -0.3f, 0.09f));
  expect_gradients_match({&a, &b}, [&](Program& t) {
    const TensorId cat = t.concat_cols(t.param(&a), t.param(&b));
    const TensorId sl = t.slice_cols(cat, 1, 2);
    return weighted_scalar(t, t.permute_rows(sl, {2, 0, 1}));
  });
}

TEST(GradCheckTest, BceWithLogits) {
  for (float target : {0.0f, 1.0f}) {
    Parameter w(filled(1, 1, 0.37f, 0.0f));
    expect_gradients_match({&w}, [&](Program& t) {
      return t.bce_with_logits(t.param(&w), target);
    });
  }
}

TEST(GradCheckTest, LinearAndMlpComposite) {
  std::mt19937_64 rng(11);
  Linear lin(3, 2, rng);
  Mlp mlp({2, 4, 1}, rng);
  Parameter x(filled(5, 3, -0.2f, 0.07f));
  std::vector<Parameter*> params = {&x};
  lin.collect_parameters(params);
  mlp.collect_parameters(params);
  expect_gradients_match(params, [&](Program& t) {
    const TensorId h = t.relu(lin.forward(t, t.param(&x)));
    return weighted_scalar(t, mlp.forward(t, h));
  });
}

TEST(GradCheckTest, LstmCellComposite) {
  std::mt19937_64 rng(13);
  LstmCell cell(3, 2, rng);
  Parameter x(filled(4, 3, -0.3f, 0.11f));
  Parameter h0(filled(4, 2, 0.1f, 0.05f));
  Parameter c0(filled(4, 2, -0.1f, 0.04f));
  std::vector<Parameter*> params = {&x, &h0, &c0};
  cell.collect_parameters(params);
  expect_gradients_match(
      params,
      [&](Program& t) {
        LstmCell::State st{t.param(&h0), t.param(&c0)};
        st = cell.forward(t, t.param(&x), st);
        st = cell.forward(t, t.param(&x), st);  // two steps, shared weights
        return weighted_scalar(t, st.h);
      },
      5e-3f, 6e-2f);
}

// --- BCE loss values ---------------------------------------------------------------

TEST(TapeTest, BceMatchesClosedForm) {
  Program prog;
  Matrix logit(1, 1);
  logit.at(0, 0) = 0.0f;
  const TensorId l = prog.constant(std::move(logit));
  const TensorId loss = prog.bce_with_logits(l, 1.0f);
  EXPECT_NEAR(forward_value(prog, loss).at(0, 0), std::log(2.0f), 1e-6f);
}

TEST(TapeTest, BceIsStableForExtremeLogits) {
  for (float x : {-50.0f, 50.0f}) {
    Program prog;
    Matrix logit(1, 1);
    logit.at(0, 0) = x;
    const TensorId loss =
        prog.bce_with_logits(prog.constant(std::move(logit)), 1.0f);
    const float v = forward_value(prog, loss).at(0, 0);
    EXPECT_TRUE(std::isfinite(v));
    if (x > 0) {
      EXPECT_NEAR(v, 0.0f, 1e-6f);
    }
    if (x < 0) {
      EXPECT_NEAR(v, 50.0f, 1e-4f);
    }
  }
}

// --- Adam ----------------------------------------------------------------------------

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 via autograd: loss = (w-3)*(w-3).
  Parameter w(Matrix::zeros(1, 1));
  Adam opt({&w}, /*lr=*/0.1f);
  Program prog;
  const TensorId diff = prog.add_scalar(prog.param(&w), -3.0f);
  const TensorId loss = prog.hadamard(diff, diff);
  Executor exec(prog, ExecMode::kTraining);
  for (int step = 0; step < 500; ++step) {
    exec.forward();  // reads the value the last step wrote
    exec.backward(loss);
    opt.step();
  }
  EXPECT_NEAR(w.value.at(0, 0), 3.0f, 0.05f);
}

TEST(AdamTest, ZeroGradClearsAccumulation) {
  Parameter w(Matrix::ones(1, 1));
  Adam opt({&w});
  w.grad.at(0, 0) = 5.0f;
  opt.zero_grad();
  EXPECT_FLOAT_EQ(w.grad.at(0, 0), 0.0f);
}

}  // namespace
}  // namespace ns::nn
