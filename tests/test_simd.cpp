/// \file test_simd.cpp
/// Scalar-vs-SIMD bitwise equality, kernel by kernel (DESIGN.md §13). Each
/// test drives a dispatch entry point twice — vector tier on, then off with
/// the caller's scalar fallback loop — over ragged sizes that cover the
/// full vector width, the partial tail, and the scalar-only remainder, and
/// requires the float bits to match exactly. The scalar loops here are
/// copies of the production call sites' fallbacks, compiled in the same
/// translation-unit flags, so the comparison exercises the real contract:
/// one contraction mode per build, no reassociation across lanes.
///
/// On machines without the compiled tier (or in an NS_SIMD=OFF build) every
/// dispatch call returns false and the suite degenerates to checking that.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "nn/kernels_simd.hpp"

namespace ns::nn::simd {
namespace {

std::uint32_t bits(float x) {
  std::uint32_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Sizes straddling every dispatch boundary of the widest kernel (the
/// 32-wide AVX2 GEMM panel, the 8-wide loop, the scalar tail) and the
/// 4-wide NEON equivalents.
const std::size_t kSizes[] = {1, 3, 7, 8, 9, 15, 16, 31, 32, 33, 40, 100};

/// Deterministic mixed-sign data with exact zeros sprinkled in (the GEMM
/// and axpy call sites skip zero multipliers; the kernels must too).
std::vector<float> random_data(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = (rng() % 7 == 0) ? 0.0f : dist(rng);
  }
  return v;
}

class SimdKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override { set_enabled(true); }
  void TearDown() override { set_enabled(true); }

  /// True when the vector tier actually runs on this machine; otherwise
  /// each test only asserts the scalar-handoff behaviour.
  static bool vector_tier() { return available(); }
};

void expect_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b, const char* what,
                          std::size_t n) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bits(a[i]), bits(b[i]))
        << what << " n=" << n << " element " << i << ": " << a[i]
        << " vs " << b[i];
  }
}

TEST_F(SimdKernelsTest, DispatchReportsTierConsistently) {
  EXPECT_EQ(available(), compiled_in() && available());
  EXPECT_NE(tier(), nullptr);
  if (!vector_tier()) {
    EXPECT_EQ(std::string(tier()), "scalar");
    float y[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    const float x[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    EXPECT_FALSE(axpy(y, x, 2.0f, 4));
    EXPECT_EQ(bits(y[0]), bits(0.0f));  // a refused kernel writes nothing
  }
  set_enabled(false);
  EXPECT_FALSE(enabled());
  float y[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  const float x[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  EXPECT_FALSE(axpy(y, x, 2.0f, 4));
  set_enabled(true);
  EXPECT_EQ(enabled(), available());
}

TEST_F(SimdKernelsTest, AxpyMatchesScalar) {
  if (!vector_tier()) GTEST_SKIP() << "vector tier unavailable";
  for (const std::size_t n : kSizes) {
    const std::vector<float> x = random_data(n, 11u + n);
    std::vector<float> y_simd = random_data(n, 23u + n);
    std::vector<float> y_ref = y_simd;
    const float a = 1.37f;

    set_enabled(true);
    ASSERT_TRUE(axpy(y_simd.data(), x.data(), a, n));
    set_enabled(false);
    ASSERT_FALSE(axpy(y_ref.data(), x.data(), a, n));
    for (std::size_t j = 0; j < n; ++j) y_ref[j] += a * x[j];

    expect_bitwise_equal(y_simd, y_ref, "axpy", n);
  }
}

TEST_F(SimdKernelsTest, GemmRowsMatchesScalar) {
  if (!vector_tier()) GTEST_SKIP() << "vector tier unavailable";
  for (const std::size_t bcols : kSizes) {
    const std::size_t rows = 3, acols = 5;
    const std::vector<float> a = random_data(rows * acols, 7u + bcols);
    const std::vector<float> b = random_data(acols * bcols, 31u + bcols);
    std::vector<float> c_simd(rows * bcols, -1.0f);
    std::vector<float> c_ref(rows * bcols, -1.0f);

    set_enabled(true);
    ASSERT_TRUE(
        gemm_rows(a.data(), acols, b.data(), bcols, c_simd.data(), 0, rows));
    set_enabled(false);
    ASSERT_FALSE(
        gemm_rows(a.data(), acols, b.data(), bcols, c_ref.data(), 0, rows));
    // The production fallback (matmul_into's scalar loop, zero-skip and
    // all) over rows it first clears.
    for (std::size_t i = 0; i < rows; ++i) {
      float* crow = c_ref.data() + i * bcols;
      for (std::size_t j = 0; j < bcols; ++j) crow[j] = 0.0f;
      for (std::size_t k = 0; k < acols; ++k) {
        const float aik = a[i * acols + k];
        if (aik == 0.0f) continue;
        const float* brow = b.data() + k * bcols;
        for (std::size_t j = 0; j < bcols; ++j) crow[j] += aik * brow[j];
      }
    }

    expect_bitwise_equal(c_simd, c_ref, "gemm_rows", bcols);
  }
}

TEST_F(SimdKernelsTest, ReluMatchesScalarIncludingNegativeZero) {
  if (!vector_tier()) GTEST_SKIP() << "vector tier unavailable";
  for (const std::size_t n : kSizes) {
    std::vector<float> x = random_data(n, 43u + n);
    x[0] = -0.0f;  // sign-of-zero must round-trip exactly like the scalar op
    if (n > 1) x[n / 2] = 0.0f;
    std::vector<float> y_simd(n, -5.0f), y_ref(n, -5.0f);

    set_enabled(true);
    ASSERT_TRUE(relu(y_simd.data(), x.data(), n));
    set_enabled(false);
    ASSERT_FALSE(relu(y_ref.data(), x.data(), n));
    for (std::size_t j = 0; j < n; ++j) y_ref[j] = x[j] < 0.0f ? 0.0f : x[j];

    expect_bitwise_equal(y_simd, y_ref, "relu", n);
  }
}

TEST_F(SimdKernelsTest, ElementwiseBinariesMatchScalar) {
  if (!vector_tier()) GTEST_SKIP() << "vector tier unavailable";
  for (const std::size_t n : kSizes) {
    const std::vector<float> a = random_data(n, 51u + n);
    const std::vector<float> b = random_data(n, 67u + n);
    std::vector<float> y_simd(n), y_ref(n);

    set_enabled(true);
    ASSERT_TRUE(add(y_simd.data(), a.data(), b.data(), n));
    set_enabled(false);
    ASSERT_FALSE(add(y_ref.data(), a.data(), b.data(), n));
    for (std::size_t j = 0; j < n; ++j) y_ref[j] = a[j] + b[j];
    expect_bitwise_equal(y_simd, y_ref, "add", n);

    set_enabled(true);
    ASSERT_TRUE(sub(y_simd.data(), a.data(), b.data(), n));
    set_enabled(false);
    ASSERT_FALSE(sub(y_ref.data(), a.data(), b.data(), n));
    for (std::size_t j = 0; j < n; ++j) y_ref[j] = a[j] - b[j];
    expect_bitwise_equal(y_simd, y_ref, "sub", n);

    set_enabled(true);
    ASSERT_TRUE(hadamard(y_simd.data(), a.data(), b.data(), n));
    set_enabled(false);
    ASSERT_FALSE(hadamard(y_ref.data(), a.data(), b.data(), n));
    for (std::size_t j = 0; j < n; ++j) y_ref[j] = a[j] * b[j];
    expect_bitwise_equal(y_simd, y_ref, "hadamard", n);
  }
}

TEST_F(SimdKernelsTest, ScalarBroadcastsMatchScalar) {
  if (!vector_tier()) GTEST_SKIP() << "vector tier unavailable";
  for (const std::size_t n : kSizes) {
    const std::vector<float> x = random_data(n, 71u + n);
    std::vector<float> y_simd(n), y_ref(n);
    const float s = -0.731f;

    set_enabled(true);
    ASSERT_TRUE(add_scalar(y_simd.data(), x.data(), s, n));
    set_enabled(false);
    ASSERT_FALSE(add_scalar(y_ref.data(), x.data(), s, n));
    for (std::size_t j = 0; j < n; ++j) y_ref[j] = x[j] + s;
    expect_bitwise_equal(y_simd, y_ref, "add_scalar", n);
  }
}

TEST_F(SimdKernelsTest, RowKernelsMatchScalar) {
  if (!vector_tier()) GTEST_SKIP() << "vector tier unavailable";
  for (const std::size_t cols : kSizes) {
    const std::size_t rows = 4;
    const std::vector<float> x = random_data(rows * cols, 83u + cols);
    const std::vector<float> b = random_data(cols, 97u + cols);
    const std::vector<float> s = random_data(rows, 103u + cols);
    std::vector<float> y_simd(rows * cols), y_ref(rows * cols);

    set_enabled(true);
    ASSERT_TRUE(bias_add(y_simd.data(), x.data(), b.data(), rows, cols));
    set_enabled(false);
    ASSERT_FALSE(bias_add(y_ref.data(), x.data(), b.data(), rows, cols));
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        y_ref[r * cols + c] = x[r * cols + c] + b[c];
      }
    }
    expect_bitwise_equal(y_simd, y_ref, "bias_add", cols);

    set_enabled(true);
    ASSERT_TRUE(row_scale(y_simd.data(), x.data(), s.data(), rows, cols));
    set_enabled(false);
    ASSERT_FALSE(row_scale(y_ref.data(), x.data(), s.data(), rows, cols));
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        y_ref[r * cols + c] = x[r * cols + c] * s[r];
      }
    }
    expect_bitwise_equal(y_simd, y_ref, "row_scale", cols);
  }
}

}  // namespace
}  // namespace ns::nn::simd
