#include "nn/kernels_simd.hpp"

namespace ns::nn::simd {
namespace {

bool detect_cpu() {
#if defined(NS_SIMD_X86)
#if defined(__FMA__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return __builtin_cpu_supports("avx2");
#endif
#elif defined(NS_SIMD_NEON)
  return true;  // NEON is architectural on aarch64
#else
  return false;
#endif
}

}  // namespace

namespace detail {
// Dynamic initializer: runs the CPUID probe once at load time. A kernel
// called from another TU's static initializer may observe the zero-init
// false and take the scalar tier — safe either way.
bool g_enabled = detect_cpu();
#if defined(NS_SIMD_X86)
bool g_avx512 = detect_cpu() && __builtin_cpu_supports("avx512f");
#endif
}  // namespace detail

bool compiled_in() {
#if defined(NS_SIMD_X86) || defined(NS_SIMD_NEON)
  return true;
#else
  return false;
#endif
}

bool available() {
  static const bool ok = detect_cpu();
  return ok;
}

void set_enabled(bool on) { detail::g_enabled = on && available(); }

const char* tier() {
  if (!enabled()) return "scalar";
#if defined(NS_SIMD_X86)
  return detail::g_avx512 ? "avx512" : "avx2";
#elif defined(NS_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

}  // namespace ns::nn::simd
