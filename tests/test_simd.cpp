/// \file test_simd.cpp
/// Scalar-vs-SIMD bitwise equality for the three product kernels (A·B,
/// AᵀB, SpMM; DESIGN.md §13), the only kernels with a vector tier. Each
/// test drives a dispatch entry point with the vector tier on, requires it
/// to refuse with the tier off, and compares it with the caller's scalar
/// fallback loop over ragged sizes that cover the full vector width, the
/// partial tail, and the scalar-only remainder, requiring the float bits
/// to match exactly. The scalar loops here are copies of the production
/// call sites' fallbacks, compiled in the same translation-unit flags, so
/// the comparison exercises the real contract: one contraction mode per
/// build, no reassociation across lanes.
///
/// The A·B and AᵀB kernels are also checked body by body: every vector
/// body this host can run is called directly, so an AVX-512 host checks its
/// AVX2 bodies too, over row ranges that start mid-matrix and with -0.0,
/// subnormal, infinite and NaN entries.
///
/// On machines without the compiled tier (or in an NS_SIMD=OFF build) every
/// dispatch call returns false and the suite degenerates to checking that.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
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
/// 32-wide AVX2 and AVX-512 panels, the 16- and 8-wide vectors, the
/// scalar or masked tail) and the 4-wide NEON equivalents.
const std::size_t kSizes[] = {1, 3, 7, 8, 9, 15, 16, 31, 32, 33, 40, 100};

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
#if defined(NS_SIMD_X86)
  if (vector_tier()) {
    EXPECT_EQ(std::string(tier()), detail::g_avx512 ? "avx512" : "avx2");
  }
#endif
  if (!vector_tier()) {
    EXPECT_EQ(std::string(tier()), "scalar");
    float y[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    const float x[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    EXPECT_FALSE(gemm_rows(x, 2, x, 2, y, 0, 2));
    EXPECT_EQ(bits(y[0]), bits(0.0f));  // a refused kernel writes nothing
  }
  set_enabled(false);
  EXPECT_FALSE(enabled());
  float y[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  const float x[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  EXPECT_FALSE(gemm_rows(x, 2, x, 2, y, 0, 2));
  set_enabled(true);
  EXPECT_EQ(enabled(), available());
}

// --- product kernels ---------------------------------------------------------

/// Output row counts: every 4-row block remainder, and blocks plus a tail.
const std::size_t kProductRows[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 33};
/// Inner (k) dimensions.
const std::size_t kProductInner[] = {1, 5, 32, 40};
/// Fractions of exact zeros (of either sign) in A.
const double kZeroFractions[] = {0.0, 0.5, 0.9};

/// The NaN this host's arithmetic produces (0·inf). Test data uses it for
/// every NaN, so a result's NaN bits do not depend on which of two NaN
/// operands an instruction propagates.
float host_nan() {
  volatile float zero = 0.0f;
  volatile float inf = std::numeric_limits<float>::infinity();
  return zero * inf;
}

/// Uniform(-2, 2) entries, the fraction `zf` of them ±0.0. With `specials`,
/// a sprinkling of -0.0, subnormals, ±inf and NaN on top.
std::vector<float> product_data(std::size_t n, double zf, bool specials,
                                std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = dist(rng);
    if (coin(rng) < zf) v[i] = (rng() & 1u) ? 0.0f : -0.0f;
    if (!specials) continue;
    switch (rng() % 24) {
      case 0: v[i] = -0.0f; break;
      case 1: v[i] = std::numeric_limits<float>::denorm_min() * 37.0f; break;
      case 2: v[i] = std::numeric_limits<float>::infinity(); break;
      case 3: v[i] = -std::numeric_limits<float>::infinity(); break;
      case 4: v[i] = host_nan(); break;
      default: break;
    }
  }
  return v;
}

constexpr std::uint32_t kSentinelBits = 0xDEADBEEFu;

float sentinel() {
  float f = 0.0f;
  std::memcpy(&f, &kSentinelBits, sizeof(f));
  return f;
}

/// Rows [r0, r1) of `rows`×`cols` C, written by one kernel call.
using RowsKernel =
    std::function<void(float* c, std::size_t r0, std::size_t r1)>;

/// Runs `kernel` on rows [0, rows/3) and then [rows/3, rows), the split a
/// pool worker sees, checking that neither call writes a row outside its
/// range. Returns C.
std::vector<float> run_split(std::size_t rows, std::size_t cols,
                             const RowsKernel& kernel) {
  std::vector<float> c(rows * cols, sentinel());
  const std::size_t mid = rows / 3;
  kernel(c.data(), 0, mid);
  for (std::size_t i = mid * cols; i < c.size(); ++i) {
    EXPECT_EQ(bits(c[i]), kSentinelBits)
        << "row " << i / cols << " written by rows [0, " << mid << ")";
  }
  const std::vector<float> first = c;
  kernel(c.data(), mid, rows);
  for (std::size_t i = 0; i < mid * cols; ++i) {
    EXPECT_EQ(bits(c[i]), bits(first[i]))
        << "row " << i / cols << " written by rows [" << mid << ", " << rows
        << ")";
  }
  return c;
}

/// The production fallback of matmul_into / matmul_at_b_into: C row i
/// cleared, then op(A)(i, k)·B row k added for every nonzero op(A)(i, k),
/// k ascending; op(A)(i, k) = a[i·si + k·sk].
void scalar_product_rows(const float* a, std::size_t si, std::size_t sk,
                         std::size_t kdim, const float* b, std::size_t bcols,
                         float* c, std::size_t r0, std::size_t r1) {
  for (std::size_t i = r0; i < r1; ++i) {
    float* crow = c + i * bcols;
    for (std::size_t j = 0; j < bcols; ++j) crow[j] = 0.0f;
    for (std::size_t k = 0; k < kdim; ++k) {
      const float aik = a[i * si + k * sk];
      if (aik == 0.0f) continue;
      const float* brow = b + k * bcols;
      for (std::size_t j = 0; j < bcols; ++j) crow[j] += aik * brow[j];
    }
  }
}

using StridedBody = void (*)(const float*, std::size_t, std::size_t,
                             std::size_t, const float*, std::size_t, float*,
                             std::size_t, std::size_t);

/// Every A·B / AᵀB vector body this host can run, by name.
std::vector<std::pair<const char*, StridedBody>> strided_bodies() {
  std::vector<std::pair<const char*, StridedBody>> out;
#if defined(NS_SIMD_X86)
  out.emplace_back("avx2", &detail::gemm_rows_vec);
  if (detail::g_avx512) out.emplace_back("avx512", &detail::gemm_rows_avx512);
#elif defined(NS_SIMD_NEON)
  out.emplace_back("neon", &detail::gemm_rows_vec);
#endif
  return out;
}

/// For every shape of the grid: the dispatch entry point (`entry`, called
/// with the tier on and required to refuse with it off) and every vector
/// body match the scalar loop bit for bit. `transposed` selects AᵀB, where
/// C row i is column i of A, over GEMM, where it is row i.
void check_products(bool transposed) {
  for (const std::size_t rows : kProductRows) {
    for (const std::size_t kdim : kProductInner) {
      for (const std::size_t bcols : kSizes) {
        for (const double zf : kZeroFractions) {
          for (const bool specials : {false, true}) {
            const std::uint32_t seed = static_cast<std::uint32_t>(
                rows * 1009 + kdim * 101 + bcols * 7 + zf * 10 + specials);
            const std::vector<float> a =
                product_data(rows * kdim, zf, specials, seed);
            const std::vector<float> b =
                product_data(kdim * bcols, 0.1, specials, seed + 1);
            // A is rows×kdim for A·B and kdim×rows for AᵀB.
            const std::size_t si = transposed ? 1 : kdim;
            const std::size_t sk = transposed ? rows : 1;
            const std::string what =
                std::string(transposed ? "at_b" : "gemm") + " rows=" +
                std::to_string(rows) + " k=" + std::to_string(kdim) +
                " zf=" + std::to_string(zf) +
                (specials ? " specials" : "") + " bcols";

            const std::vector<float> ref =
                run_split(rows, bcols, [&](float* c, std::size_t r0,
                                           std::size_t r1) {
                  scalar_product_rows(a.data(), si, sk, kdim, b.data(), bcols,
                                      c, r0, r1);
                });
            const auto entry = [&](float* c, std::size_t r0, std::size_t r1) {
              return transposed
                         ? gemm_at_b_rows(a.data(), kdim, rows, b.data(),
                                          bcols, c, r0, r1)
                         : gemm_rows(a.data(), kdim, b.data(), bcols, c, r0,
                                     r1);
            };
            set_enabled(true);
            expect_bitwise_equal(
                run_split(rows, bcols,
                          [&](float* c, std::size_t r0, std::size_t r1) {
                            ASSERT_TRUE(entry(c, r0, r1));
                          }),
                ref, (what + " (entry)").c_str(), bcols);
            set_enabled(false);
            std::vector<float> untouched(rows * bcols, sentinel());
            ASSERT_FALSE(entry(untouched.data(), 0, rows));
            EXPECT_EQ(bits(untouched[0]), kSentinelBits);
            set_enabled(true);

            for (const auto& [name, body] : strided_bodies()) {
              expect_bitwise_equal(
                  run_split(rows, bcols,
                            [&](float* c, std::size_t r0, std::size_t r1) {
                              body(a.data(), si, sk, kdim, b.data(), bcols, c,
                                   r0, r1);
                            }),
                  ref, (what + " (" + name + ")").c_str(), bcols);
            }
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST_F(SimdKernelsTest, GemmRowsMatchesScalar) {
  if (!vector_tier()) GTEST_SKIP() << "vector tier unavailable";
  check_products(/*transposed=*/false);
}

TEST_F(SimdKernelsTest, GemmAtBRowsMatchesScalar) {
  if (!vector_tier()) GTEST_SKIP() << "vector tier unavailable";
  check_products(/*transposed=*/true);
}

/// SpMM never skips an edge, so its zeros and specials sit in the edge
/// values and X; rows have 0 to 6 edges, so empty rows occur.
TEST_F(SimdKernelsTest, SpmmRowsMatchesScalar) {
  if (!vector_tier()) GTEST_SKIP() << "vector tier unavailable";
  for (const std::size_t rows : kProductRows) {
    for (const std::size_t xrows : kProductInner) {
      for (const std::size_t xcols : kSizes) {
        for (const double zf : kZeroFractions) {
          for (const bool specials : {false, true}) {
            const std::uint32_t seed = static_cast<std::uint32_t>(
                rows * 1009 + xrows * 101 + xcols * 7 + zf * 10 + specials);
            std::mt19937 rng(seed);
            std::vector<std::size_t> row_ptr{0};
            std::vector<std::uint32_t> col;
            for (std::size_t r = 0; r < rows; ++r) {
              const std::size_t degree = rng() % 7;
              for (std::size_t e = 0; e < degree; ++e) {
                col.push_back(static_cast<std::uint32_t>(rng() % xrows));
              }
              row_ptr.push_back(col.size());
            }
            const std::vector<float> val =
                product_data(col.size(), zf, specials, seed + 1);
            const std::vector<float> x =
                product_data(xrows * xcols, 0.1, specials, seed + 2);
            const std::string what = "spmm rows=" + std::to_string(rows) +
                                     " xrows=" + std::to_string(xrows) +
                                     " zf=" + std::to_string(zf) +
                                     (specials ? " specials" : "") + " xcols";

            // sparse.cpp's fallback: row cleared, edges added in CSR order.
            const std::vector<float> ref = run_split(
                rows, xcols, [&](float* y, std::size_t r0, std::size_t r1) {
                  for (std::size_t r = r0; r < r1; ++r) {
                    float* yrow = y + r * xcols;
                    for (std::size_t j = 0; j < xcols; ++j) yrow[j] = 0.0f;
                    for (std::size_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
                      const float* xrow = x.data() + col[e] * xcols;
                      for (std::size_t j = 0; j < xcols; ++j) {
                        yrow[j] += val[e] * xrow[j];
                      }
                    }
                  }
                });
            set_enabled(true);
            expect_bitwise_equal(
                run_split(rows, xcols,
                          [&](float* y, std::size_t r0, std::size_t r1) {
                            ASSERT_TRUE(spmm_rows(row_ptr.data(), col.data(),
                                                  val.data(), x.data(), xcols,
                                                  y, r0, r1));
                          }),
                ref, what.c_str(), xcols);
            set_enabled(false);
            std::vector<float> untouched(rows * xcols, sentinel());
            ASSERT_FALSE(spmm_rows(row_ptr.data(), col.data(), val.data(),
                                   x.data(), xcols, untouched.data(), 0,
                                   rows));
            EXPECT_EQ(bits(untouched[0]), kSentinelBits);
            set_enabled(true);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ns::nn::simd
