#pragma once
/// \file kernels_simd.hpp
/// Runtime-dispatched SIMD microkernels for the three products of the nn
/// stack (DESIGN.md §13): A·B and AᵀB row panels (`matmul_into`,
/// `matmul_at_b_into`) and CSR·X rows (`SparseMatrix::multiply_into`).
/// The executor's elementwise ops (relu, add, bias-add, row scaling, ...)
/// have no entry point here: they are plain loops the compiler vectorizes.
///
/// NS_HOT(every kernel here is a dense inner loop under runtime ISA dispatch)
///
/// Dispatch contract: every kernel returns `bool`. `true` means the SIMD
/// tier handled the call; `false` means the caller must run its own scalar
/// loop — which stays in the calling TU, unchanged, as the source of truth
/// for semantics. Call sites therefore read
///
///     if (simd::gemm_rows(a, acols, b, bcols, c, r0, r1)) return;
///     for (std::size_t i = r0; i < r1; ++i) { /* the scalar row */ }
///
/// and disabling SIMD (NS_SIMD=OFF at configure time, an unsupported CPU at
/// process start, or `set_enabled(false)` at run time) reproduces today's
/// scalar results bit for bit by construction.
///
/// Bitwise equality between the tiers is part of the contract, not a hope:
///  - Vectorization only runs *independent output elements* (the j lanes of
///    a GEMM or SpMM row) side by side; the per-element reduction over k
///    stays in ascending order, so no float addition is reassociated.
///  - Fused multiply-add is used if and only if the translation unit is
///    compiled with FMA available (`__FMA__`), which is exactly when the
///    compiler contracts the scalar loops' `y += a*x` to an fma as well.
///    One build never mixes contraction modes across tiers.
///  - Kernels with a genuinely different reduction shape (the
///    double-accumulated dot products of `matmul_a_bt_into`, libm-bound
///    sigmoid/tanh) are deliberately *not* given SIMD paths.
///
/// The hot entry points are header-inline so the `enabled()` test is a load
/// and a predictable branch at the call site; the vector bodies carry
/// `__attribute__((target(...)))` and are selected per process by CPU
/// detection (`__builtin_cpu_supports`), so the build stays runnable on
/// machines older than the build host even with -march=native off.
///
/// This header must stay self-contained with NS_SIMD undefined (the
/// archcheck header gate compiles it with no project defines): everything
/// vector-specific sits behind NS_SIMD && architecture guards, and the
/// scalar-only build exports the same API with every kernel returning
/// false.

#include <cstddef>
#include <cstdint>

#if defined(NS_SIMD) && NS_SIMD
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NS_SIMD_X86 1
#include <immintrin.h>
#if defined(__FMA__)
#include <cmath>
#endif
#elif defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define NS_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace ns::nn::simd {

namespace detail {
/// Process-wide tier switch: initialized by kernels_simd.cpp to
/// `available()` (static init; a kernel called before that sees false and
/// falls back to scalar — never wrong, briefly slower). Flipped only by
/// `set_enabled`, which tests and benches call with no kernels in flight.
extern bool g_enabled;
#if defined(NS_SIMD_X86)
/// The executing CPU has AVX-512F (and the compiled tier is available):
/// the product kernels take their AVX-512 bodies. Set once at static init.
extern bool g_avx512;
#endif
}  // namespace detail

/// True when the build carries vector bodies (NS_SIMD=ON on x86-64/aarch64
/// with a GNU-compatible compiler).
bool compiled_in();

/// `compiled_in()` and the executing CPU supports the compiled tier
/// (AVX2 — plus FMA when the build uses it — on x86; always on aarch64).
bool available();

/// Runtime toggle for tests and benches: `on && available()` becomes the
/// new state. Not thread-safe against in-flight kernels.
void set_enabled(bool on);

/// Tier the *next* kernel call will take: "avx512" (the A·B and AᵀB
/// products take their AVX-512 bodies, SpMM its AVX2 one), "avx2", "neon",
/// or "scalar".
const char* tier();

/// True when kernels will take the vector path right now.
inline bool enabled() { return detail::g_enabled; }

// --- vector bodies ---------------------------------------------------------

#if defined(NS_SIMD_X86)

// One contraction mode per build (see file comment): with __FMA__ the
// vector bodies fuse exactly like the compiler fuses the scalar loops;
// without it both tiers round the multiply and the add separately.
#if defined(__FMA__)
#define NS_SIMD_TARGET "avx2,fma"
#else
#define NS_SIMD_TARGET "avx2"
#endif
// AVX-512F implies FMA; the bodies still fuse only under __FMA__, and
// without it contain no scalar float code the compiler could contract.
#define NS_SIMD_TARGET_512 "avx512f"

namespace detail {

__attribute__((target(NS_SIMD_TARGET))) inline __m256 madd(__m256 a, __m256 b,
                                                           __m256 acc) {
#if defined(__FMA__)
  return _mm256_fmadd_ps(a, b, acc);
#else
  return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
#endif
}

inline float madd1(float a, float b, float acc) {
#if defined(__FMA__)
  return std::fmaf(a, b, acc);
#else
  return acc + a * b;
#endif
}

/// Rows [r0, r1) of C = op(A)·B, where op(A)(i, k) = a[i·si + k·sk] for
/// k in [0, kdim): (si, sk) = (acols, 1) is A·B, (1, acols) is AᵀB.
__attribute__((target(NS_SIMD_TARGET))) inline void gemm_rows_vec(
    const float* a, std::size_t si, std::size_t sk, std::size_t kdim,
    const float* b, std::size_t bcols, float* c, std::size_t r0,
    std::size_t r1) {
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * si;
    float* crow = c + i * bcols;
    std::size_t j = 0;
    // 32-wide register panel (4 ymm accumulators): C row elements live in
    // registers across the whole k loop instead of a load/store per k.
    // hidden_dim = 32 hits this panel exactly.
    for (; j + 32 <= bcols; j += 32) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      for (std::size_t k = 0; k < kdim; ++k) {
        const float aik = arow[k * sk];
        if (aik == 0.0f) continue;  // same skip as the scalar kernel
        const __m256 va = _mm256_set1_ps(aik);
        const float* bp = b + k * bcols + j;
        acc0 = madd(va, _mm256_loadu_ps(bp + 0), acc0);
        acc1 = madd(va, _mm256_loadu_ps(bp + 8), acc1);
        acc2 = madd(va, _mm256_loadu_ps(bp + 16), acc2);
        acc3 = madd(va, _mm256_loadu_ps(bp + 24), acc3);
      }
      _mm256_storeu_ps(crow + j + 0, acc0);
      _mm256_storeu_ps(crow + j + 8, acc1);
      _mm256_storeu_ps(crow + j + 16, acc2);
      _mm256_storeu_ps(crow + j + 24, acc3);
    }
    for (; j + 8 <= bcols; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t k = 0; k < kdim; ++k) {
        const float aik = arow[k * sk];
        if (aik == 0.0f) continue;
        acc = madd(_mm256_set1_ps(aik), _mm256_loadu_ps(b + k * bcols + j),
                   acc);
      }
      _mm256_storeu_ps(crow + j, acc);
    }
    for (; j < bcols; ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < kdim; ++k) {
        const float aik = arow[k * sk];
        if (aik == 0.0f) continue;
        acc = madd1(aik, b[k * bcols + j], acc);
      }
      crow[j] = acc;
    }
  }
}

/// Lanes [0, n) of a 16-lane vector (all of them for n >= 16).
inline __mmask16 lanes16(std::size_t n) {
  return n >= 16 ? static_cast<__mmask16>(0xFFFFu)
                 : static_cast<__mmask16>((1u << n) - 1u);
}

/// acc + a·b in the lanes of `m`; the other lanes keep acc's bits.
__attribute__((target(NS_SIMD_TARGET_512))) inline __m512 madd512(
    __m512 a, __m512 b, __m512 acc, __mmask16 m) {
#if defined(__FMA__)
  return _mm512_mask3_fmadd_ps(a, b, acc, m);
#else
  return _mm512_mask_add_ps(acc, m, acc, _mm512_mul_ps(a, b));
#endif
}

/// One 4-row × 16·V-column block of C = op(A)·B, at columns [j, j + 16·V)
/// masked to `m`. Row r reads op(A) at ar[r][k·sk] and writes cr[r]. The
/// 4·V accumulators stay in registers for the whole k loop, which ascends.
template <int V>
__attribute__((target(NS_SIMD_TARGET_512))) inline void gemm_block512(
    const float* const ar[4], std::size_t sk, std::size_t kdim,
    const float* b, std::size_t bcols, float* const cr[4], std::size_t j,
    const __mmask16 m[V]) {
  const __m512 zero = _mm512_setzero_ps();
  __m512 acc[4][V];
  for (int r = 0; r < 4; ++r) {
    for (int v = 0; v < V; ++v) acc[r][v] = zero;
  }
  for (std::size_t k = 0; k < kdim; ++k) {
    __m512 bv[V];
    for (int v = 0; v < V; ++v) {
      bv[v] = _mm512_maskz_loadu_ps(m[v], b + k * bcols + j + 16 * v);
    }
    for (int r = 0; r < 4; ++r) {
      const __m512 va = _mm512_set1_ps(ar[r][k * sk]);
      // The scalar kernel's `if (aik == 0.0f) continue;` as a lane mask:
      // NEQ_UQ is its negation (±0 skip, NaN does not), and a masked-off
      // lane keeps the accumulator's bits where fma(0, b, acc) would not
      // (acc = -0.0, or b infinite or NaN).
      const __mmask16 nz = _mm512_cmp_ps_mask(va, zero, _CMP_NEQ_UQ);
      for (int v = 0; v < V; ++v) acc[r][v] = madd512(va, bv[v], acc[r][v], nz);
    }
  }
  for (int r = 0; r < 4; ++r) {
    for (int v = 0; v < V; ++v) {
      _mm512_mask_storeu_ps(cr[r] + j + 16 * v, m[v], acc[r][v]);
    }
  }
}

/// gemm_rows_vec's contract, branch-free: 4-row × 32-column register
/// blocks. A block that runs past r1 repeats row r1 - 1, recomputing its
/// bits and storing them again; column tails are masked loads and stores.
__attribute__((target(NS_SIMD_TARGET_512))) inline void gemm_rows_avx512(
    const float* a, std::size_t si, std::size_t sk, std::size_t kdim,
    const float* b, std::size_t bcols, float* c, std::size_t r0,
    std::size_t r1) {
  for (std::size_t i = r0; i < r1; i += 4) {
    const float* ar[4];
    float* cr[4];
    for (std::size_t r = 0; r < 4; ++r) {
      const std::size_t row = i + r < r1 ? i + r : r1 - 1;
      ar[r] = a + row * si;
      cr[r] = c + row * bcols;
    }
    std::size_t j = 0;
    for (; j + 16 < bcols; j += 32) {
      const __mmask16 m[2] = {lanes16(16), lanes16(bcols - j - 16)};
      gemm_block512<2>(ar, sk, kdim, b, bcols, cr, j, m);
    }
    if (j < bcols) {
      const __mmask16 m[1] = {lanes16(bcols - j)};
      gemm_block512<1>(ar, sk, kdim, b, bcols, cr, j, m);
    }
  }
}

/// Rows [r0, r1) of Y = S·X for a CSR matrix S. Each Y row's panels are
/// accumulated in registers from +0.0, edge by edge in CSR order, and
/// stored once. The scalar kernel never skips an edge, so no mask is
/// needed and this AVX2 body serves the AVX-512 tier as well.
__attribute__((target(NS_SIMD_TARGET))) inline void spmm_rows_vec(
    const std::size_t* row_ptr, const std::uint32_t* col, const float* val,
    const float* x, std::size_t xcols, float* y, std::size_t r0,
    std::size_t r1) {
  for (std::size_t r = r0; r < r1; ++r) {
    const std::size_t e0 = row_ptr[r];
    const std::size_t e1 = row_ptr[r + 1];
    float* yrow = y + r * xcols;
    std::size_t j = 0;
    for (; j + 32 <= xcols; j += 32) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      for (std::size_t e = e0; e < e1; ++e) {
        const __m256 vw = _mm256_set1_ps(val[e]);
        const float* xp = x + col[e] * xcols + j;
        acc0 = madd(vw, _mm256_loadu_ps(xp + 0), acc0);
        acc1 = madd(vw, _mm256_loadu_ps(xp + 8), acc1);
        acc2 = madd(vw, _mm256_loadu_ps(xp + 16), acc2);
        acc3 = madd(vw, _mm256_loadu_ps(xp + 24), acc3);
      }
      _mm256_storeu_ps(yrow + j + 0, acc0);
      _mm256_storeu_ps(yrow + j + 8, acc1);
      _mm256_storeu_ps(yrow + j + 16, acc2);
      _mm256_storeu_ps(yrow + j + 24, acc3);
    }
    for (; j + 8 <= xcols; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t e = e0; e < e1; ++e) {
        acc = madd(_mm256_set1_ps(val[e]),
                   _mm256_loadu_ps(x + col[e] * xcols + j), acc);
      }
      _mm256_storeu_ps(yrow + j, acc);
    }
    for (; j < xcols; ++j) {
      float acc = 0.0f;
      for (std::size_t e = e0; e < e1; ++e) {
        acc = madd1(val[e], x[col[e] * xcols + j], acc);
      }
      yrow[j] = acc;
    }
  }
}

/// The A·B / AᵀB body of this process's tier.
inline void gemm_strided(const float* a, std::size_t si, std::size_t sk,
                         std::size_t kdim, const float* b, std::size_t bcols,
                         float* c, std::size_t r0, std::size_t r1) {
  if (g_avx512) {
    gemm_rows_avx512(a, si, sk, kdim, b, bcols, c, r0, r1);
  } else {
    gemm_rows_vec(a, si, sk, kdim, b, bcols, c, r0, r1);
  }
}

}  // namespace detail

#elif defined(NS_SIMD_NEON)

namespace detail {

// aarch64 GCC/Clang contract `y += a*x` to fma by default, matching vfmaq.
inline float32x4_t madd(float32x4_t a, float32x4_t b, float32x4_t acc) {
  return vfmaq_f32(acc, a, b);
}

inline float madd1(float a, float b, float acc) {
  return __builtin_fmaf(a, b, acc);
}

/// y[j] += a * x[j] for j in [0, n): one edge of spmm_rows_vec below.
inline void axpy_vec(float* y, const float* x, float a, std::size_t n) {
  const float32x4_t va = vdupq_n_f32(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(y + j, madd(va, vld1q_f32(x + j), vld1q_f32(y + j)));
  }
  for (; j < n; ++j) y[j] = madd1(a, x[j], y[j]);
}

/// See the x86 gemm_rows_vec: op(A)(i, k) = a[i·si + k·sk], k < kdim.
inline void gemm_rows_vec(const float* a, std::size_t si, std::size_t sk,
                          std::size_t kdim, const float* b, std::size_t bcols,
                          float* c, std::size_t r0, std::size_t r1) {
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * si;
    float* crow = c + i * bcols;
    std::size_t j = 0;
    for (; j + 16 <= bcols; j += 16) {
      float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
      float32x4_t acc2 = vdupq_n_f32(0.0f), acc3 = vdupq_n_f32(0.0f);
      for (std::size_t k = 0; k < kdim; ++k) {
        const float aik = arow[k * sk];
        if (aik == 0.0f) continue;
        const float32x4_t va = vdupq_n_f32(aik);
        const float* bp = b + k * bcols + j;
        acc0 = madd(va, vld1q_f32(bp + 0), acc0);
        acc1 = madd(va, vld1q_f32(bp + 4), acc1);
        acc2 = madd(va, vld1q_f32(bp + 8), acc2);
        acc3 = madd(va, vld1q_f32(bp + 12), acc3);
      }
      vst1q_f32(crow + j + 0, acc0);
      vst1q_f32(crow + j + 4, acc1);
      vst1q_f32(crow + j + 8, acc2);
      vst1q_f32(crow + j + 12, acc3);
    }
    for (; j + 4 <= bcols; j += 4) {
      float32x4_t acc = vdupq_n_f32(0.0f);
      for (std::size_t k = 0; k < kdim; ++k) {
        const float aik = arow[k * sk];
        if (aik == 0.0f) continue;
        acc = madd(vdupq_n_f32(aik), vld1q_f32(b + k * bcols + j), acc);
      }
      vst1q_f32(crow + j, acc);
    }
    for (; j < bcols; ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < kdim; ++k) {
        const float aik = arow[k * sk];
        if (aik == 0.0f) continue;
        acc = madd1(aik, b[k * bcols + j], acc);
      }
      crow[j] = acc;
    }
  }
}

inline void gemm_strided(const float* a, std::size_t si, std::size_t sk,
                         std::size_t kdim, const float* b, std::size_t bcols,
                         float* c, std::size_t r0, std::size_t r1) {
  gemm_rows_vec(a, si, sk, kdim, b, bcols, c, r0, r1);
}

/// SpMM rows on NEON: the row cleared, then one axpy per edge in CSR
/// order, the scalar loop's float operations.
inline void spmm_rows_vec(const std::size_t* row_ptr, const std::uint32_t* col,
                          const float* val, const float* x, std::size_t xcols,
                          float* y, std::size_t r0, std::size_t r1) {
  for (std::size_t r = r0; r < r1; ++r) {
    float* yrow = y + r * xcols;
    for (std::size_t j = 0; j < xcols; ++j) yrow[j] = 0.0f;
    for (std::size_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      axpy_vec(yrow, x + col[e] * xcols, val[e], xcols);
    }
  }
}

}  // namespace detail

#endif  // NS_SIMD_X86 / NS_SIMD_NEON

// --- dispatching entry points ----------------------------------------------
// Each returns false (leaving all outputs untouched) when the vector tier
// is off; the caller then runs its scalar loop.

#if defined(NS_SIMD_X86) || defined(NS_SIMD_NEON)

/// Rows [r0, r1) of C = A·B (all row-major, contiguous; A is ·×acols, B is
/// acols×bcols). Writes every element of those C rows (no clearing
/// needed); k ascends per element exactly like the scalar kernel,
/// including its skip of zero A entries.
inline bool gemm_rows(const float* a, std::size_t acols, const float* b,
                      std::size_t bcols, float* c, std::size_t r0,
                      std::size_t r1) {
  if (!detail::g_enabled) return false;
  detail::gemm_strided(a, acols, 1, acols, b, bcols, c, r0, r1);
  return true;
}

/// Rows [r0, r1) of C = AᵀB (A is arows×acols, B is arows×bcols; C row i
/// is column i of A against B). Same contract as gemm_rows.
inline bool gemm_at_b_rows(const float* a, std::size_t arows,
                           std::size_t acols, const float* b,
                           std::size_t bcols, float* c, std::size_t r0,
                           std::size_t r1) {
  if (!detail::g_enabled) return false;
  detail::gemm_strided(a, 1, acols, arows, b, bcols, c, r0, r1);
  return true;
}

/// Rows [r0, r1) of Y = S·X for the CSR matrix (row_ptr, col, val); X has
/// xcols columns. Writes every element of those Y rows; each accumulates
/// its edges in CSR order from +0.0, like the scalar kernel.
inline bool spmm_rows(const std::size_t* row_ptr, const std::uint32_t* col,
                      const float* val, const float* x, std::size_t xcols,
                      float* y, std::size_t r0, std::size_t r1) {
  if (!detail::g_enabled) return false;
  detail::spmm_rows_vec(row_ptr, col, val, x, xcols, y, r0, r1);
  return true;
}

#else  // scalar-only build: same API, every kernel defers to the caller

inline bool gemm_rows(const float*, std::size_t, const float*, std::size_t,
                      float*, std::size_t, std::size_t) {
  return false;
}
inline bool gemm_at_b_rows(const float*, std::size_t, std::size_t,
                           const float*, std::size_t, float*, std::size_t,
                           std::size_t) {
  return false;
}
inline bool spmm_rows(const std::size_t*, const std::uint32_t*, const float*,
                      const float*, std::size_t, float*, std::size_t,
                      std::size_t) {
  return false;
}

#endif

}  // namespace ns::nn::simd
