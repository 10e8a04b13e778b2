#pragma once
/// \file kernels_simd.hpp
/// Runtime-dispatched SIMD microkernels for the dense inner loops of the
/// nn stack (DESIGN.md §13): GEMM row panels, axpy (the SpMM/AᵀB inner
/// update), and the executor's elementwise ops (relu, add, bias-add, row
/// scaling, ...).
///
/// NS_HOT(every kernel here is a dense inner loop under runtime ISA dispatch)
///
/// Dispatch contract: every kernel returns `bool`. `true` means the SIMD
/// tier handled the call; `false` means the caller must run its own scalar
/// loop — which stays in the calling TU, unchanged, as the source of truth
/// for semantics. Call sites therefore read
///
///     if (!simd::axpy(y, x, a, n)) {
///       for (std::size_t j = 0; j < n; ++j) y[j] += a * x[j];
///     }
///
/// and disabling SIMD (NS_SIMD=OFF at configure time, an unsupported CPU at
/// process start, or `set_enabled(false)` at run time) reproduces today's
/// scalar results bit for bit by construction.
///
/// Bitwise equality between the tiers is part of the contract, not a hope:
///  - Vectorization only runs *independent output elements* (the j lanes of
///    an axpy / GEMM row) side by side; the per-element reduction over k
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

/// Tier the *next* kernel call will take: "avx2", "neon", or "scalar".
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

__attribute__((target(NS_SIMD_TARGET))) inline void axpy_vec(
    float* y, const float* x, float a, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(y + j,
                     madd(va, _mm256_loadu_ps(x + j), _mm256_loadu_ps(y + j)));
  }
  for (; j < n; ++j) y[j] = madd1(a, x[j], y[j]);
}

__attribute__((target(NS_SIMD_TARGET))) inline void gemm_rows_vec(
    const float* a, std::size_t acols, const float* b, std::size_t bcols,
    float* c, std::size_t r0, std::size_t r1) {
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * acols;
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
      for (std::size_t k = 0; k < acols; ++k) {
        const float aik = arow[k];
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
      for (std::size_t k = 0; k < acols; ++k) {
        const float aik = arow[k];
        if (aik == 0.0f) continue;
        acc = madd(_mm256_set1_ps(aik), _mm256_loadu_ps(b + k * bcols + j),
                   acc);
      }
      _mm256_storeu_ps(crow + j, acc);
    }
    for (; j < bcols; ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < acols; ++k) {
        const float aik = arow[k];
        if (aik == 0.0f) continue;
        acc = madd1(aik, b[k * bcols + j], acc);
      }
      crow[j] = acc;
    }
  }
}

__attribute__((target(NS_SIMD_TARGET))) inline void relu_vec(float* y,
                                                             const float* x,
                                                             std::size_t n) {
  // andnot(x < 0, x): keeps -0 and NaN exactly like the scalar
  // `x < 0 ? 0 : x` (both comparisons are false for -0 and NaN).
  const __m256 zero = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 v = _mm256_loadu_ps(x + j);
    const __m256 neg = _mm256_cmp_ps(v, zero, _CMP_LT_OQ);
    _mm256_storeu_ps(y + j, _mm256_andnot_ps(neg, v));
  }
  for (; j < n; ++j) y[j] = x[j] < 0.0f ? 0.0f : x[j];
}

__attribute__((target(NS_SIMD_TARGET))) inline void add_vec(float* y,
                                                            const float* a,
                                                            const float* b,
                                                            std::size_t n) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(y + j,
                     _mm256_add_ps(_mm256_loadu_ps(a + j),
                                   _mm256_loadu_ps(b + j)));
  }
  for (; j < n; ++j) y[j] = a[j] + b[j];
}

__attribute__((target(NS_SIMD_TARGET))) inline void sub_vec(float* y,
                                                            const float* a,
                                                            const float* b,
                                                            std::size_t n) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(y + j,
                     _mm256_sub_ps(_mm256_loadu_ps(a + j),
                                   _mm256_loadu_ps(b + j)));
  }
  for (; j < n; ++j) y[j] = a[j] - b[j];
}

__attribute__((target(NS_SIMD_TARGET))) inline void mul_vec(float* y,
                                                            const float* a,
                                                            const float* b,
                                                            std::size_t n) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(y + j,
                     _mm256_mul_ps(_mm256_loadu_ps(a + j),
                                   _mm256_loadu_ps(b + j)));
  }
  for (; j < n; ++j) y[j] = a[j] * b[j];
}

__attribute__((target(NS_SIMD_TARGET))) inline void scale_vec(float* y,
                                                              const float* x,
                                                              float s,
                                                              std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(y + j, _mm256_mul_ps(_mm256_loadu_ps(x + j), vs));
  }
  for (; j < n; ++j) y[j] = x[j] * s;
}

__attribute__((target(NS_SIMD_TARGET))) inline void add_scalar_vec(
    float* y, const float* x, float s, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(y + j, _mm256_add_ps(_mm256_loadu_ps(x + j), vs));
  }
  for (; j < n; ++j) y[j] = x[j] + s;
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

inline void axpy_vec(float* y, const float* x, float a, std::size_t n) {
  const float32x4_t va = vdupq_n_f32(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(y + j, madd(va, vld1q_f32(x + j), vld1q_f32(y + j)));
  }
  for (; j < n; ++j) y[j] = madd1(a, x[j], y[j]);
}

inline void gemm_rows_vec(const float* a, std::size_t acols, const float* b,
                          std::size_t bcols, float* c, std::size_t r0,
                          std::size_t r1) {
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * acols;
    float* crow = c + i * bcols;
    std::size_t j = 0;
    for (; j + 16 <= bcols; j += 16) {
      float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
      float32x4_t acc2 = vdupq_n_f32(0.0f), acc3 = vdupq_n_f32(0.0f);
      for (std::size_t k = 0; k < acols; ++k) {
        const float aik = arow[k];
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
      for (std::size_t k = 0; k < acols; ++k) {
        const float aik = arow[k];
        if (aik == 0.0f) continue;
        acc = madd(vdupq_n_f32(aik), vld1q_f32(b + k * bcols + j), acc);
      }
      vst1q_f32(crow + j, acc);
    }
    for (; j < bcols; ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < acols; ++k) {
        const float aik = arow[k];
        if (aik == 0.0f) continue;
        acc = madd1(aik, b[k * bcols + j], acc);
      }
      crow[j] = acc;
    }
  }
}

inline void relu_vec(float* y, const float* x, std::size_t n) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const float32x4_t v = vld1q_f32(x + j);
    const uint32x4_t neg = vcltq_f32(v, zero);
    vst1q_f32(y + j, vbslq_f32(neg, zero, v));
  }
  for (; j < n; ++j) y[j] = x[j] < 0.0f ? 0.0f : x[j];
}

inline void add_vec(float* y, const float* a, const float* b, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(y + j, vaddq_f32(vld1q_f32(a + j), vld1q_f32(b + j)));
  }
  for (; j < n; ++j) y[j] = a[j] + b[j];
}

inline void sub_vec(float* y, const float* a, const float* b, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(y + j, vsubq_f32(vld1q_f32(a + j), vld1q_f32(b + j)));
  }
  for (; j < n; ++j) y[j] = a[j] - b[j];
}

inline void mul_vec(float* y, const float* a, const float* b, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(y + j, vmulq_f32(vld1q_f32(a + j), vld1q_f32(b + j)));
  }
  for (; j < n; ++j) y[j] = a[j] * b[j];
}

inline void scale_vec(float* y, const float* x, float s, std::size_t n) {
  const float32x4_t vs = vdupq_n_f32(s);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(y + j, vmulq_f32(vld1q_f32(x + j), vs));
  }
  for (; j < n; ++j) y[j] = x[j] * s;
}

inline void add_scalar_vec(float* y, const float* x, float s, std::size_t n) {
  const float32x4_t vs = vdupq_n_f32(s);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(y + j, vaddq_f32(vld1q_f32(x + j), vs));
  }
  for (; j < n; ++j) y[j] = x[j] + s;
}

}  // namespace detail

#endif  // NS_SIMD_X86 / NS_SIMD_NEON

// --- dispatching entry points ----------------------------------------------
// Each returns false (leaving all outputs untouched) when the vector tier
// is off; the caller then runs its scalar loop.

#if defined(NS_SIMD_X86) || defined(NS_SIMD_NEON)

/// y[j] += a * x[j] for j in [0, n). The inner update of SpMM and AᵀB.
inline bool axpy(float* y, const float* x, float a, std::size_t n) {
  if (!detail::g_enabled) return false;
  detail::axpy_vec(y, x, a, n);
  return true;
}

/// Rows [r0, r1) of C = A·B (all row-major, contiguous; A is ·×acols, B is
/// acols×bcols). Overwrites the C rows; k ascends per element exactly like
/// the scalar kernel, including its skip of zero A entries.
inline bool gemm_rows(const float* a, std::size_t acols, const float* b,
                      std::size_t bcols, float* c, std::size_t r0,
                      std::size_t r1) {
  if (!detail::g_enabled) return false;
  detail::gemm_rows_vec(a, acols, b, bcols, c, r0, r1);
  return true;
}

inline bool relu(float* y, const float* x, std::size_t n) {
  if (!detail::g_enabled) return false;
  detail::relu_vec(y, x, n);
  return true;
}

inline bool add(float* y, const float* a, const float* b, std::size_t n) {
  if (!detail::g_enabled) return false;
  detail::add_vec(y, a, b, n);
  return true;
}

inline bool sub(float* y, const float* a, const float* b, std::size_t n) {
  if (!detail::g_enabled) return false;
  detail::sub_vec(y, a, b, n);
  return true;
}

/// Elementwise product (Hadamard).
inline bool hadamard(float* y, const float* a, const float* b, std::size_t n) {
  if (!detail::g_enabled) return false;
  detail::mul_vec(y, a, b, n);
  return true;
}

inline bool add_scalar(float* y, const float* x, float s, std::size_t n) {
  if (!detail::g_enabled) return false;
  detail::add_scalar_vec(y, x, s, n);
  return true;
}

/// Y = X + 1·bias (bias is one row of `cols` floats): the kAddRowBroadcast
/// kernel.
inline bool bias_add(float* y, const float* x, const float* bias,
                     std::size_t rows, std::size_t cols) {
  if (!detail::g_enabled) return false;
  for (std::size_t r = 0; r < rows; ++r) {
    detail::add_vec(y + r * cols, x + r * cols, bias, cols);
  }
  return true;
}

/// Y[r][c] = X[r][c] * s[r] (s is an rows×1 column): the kRowMul kernel.
inline bool row_scale(float* y, const float* x, const float* s,
                      std::size_t rows, std::size_t cols) {
  if (!detail::g_enabled) return false;
  for (std::size_t r = 0; r < rows; ++r) {
    detail::scale_vec(y + r * cols, x + r * cols, s[r], cols);
  }
  return true;
}

#else  // scalar-only build: same API, every kernel defers to the caller

inline bool axpy(float*, const float*, float, std::size_t) { return false; }
inline bool gemm_rows(const float*, std::size_t, const float*, std::size_t,
                      float*, std::size_t, std::size_t) {
  return false;
}
inline bool relu(float*, const float*, std::size_t) { return false; }
inline bool add(float*, const float*, const float*, std::size_t) {
  return false;
}
inline bool sub(float*, const float*, const float*, std::size_t) {
  return false;
}
inline bool hadamard(float*, const float*, const float*, std::size_t) {
  return false;
}
inline bool add_scalar(float*, const float*, float, std::size_t) {
  return false;
}
inline bool bias_add(float*, const float*, const float*, std::size_t,
                     std::size_t) {
  return false;
}
inline bool row_scale(float*, const float*, const float*, std::size_t,
                      std::size_t) {
  return false;
}

#endif

}  // namespace ns::nn::simd
