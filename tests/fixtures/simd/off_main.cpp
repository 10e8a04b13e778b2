// NS_SIMD=0 fixture (driven by simd_off_case.cmake): with the vector tier
// compiled out, every dispatch entry point must refuse the call (return
// false) and leave its outputs untouched. Exercises only the header-inline
// API so the TU links without ns_nn.

#include <cstddef>
#include <cstdint>

#include "nn/kernels_simd.hpp"

namespace simd = ns::nn::simd;

int main() {
  float y[8] = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f, 8.0f};
  const float x[8] = {8.0f, 7.0f, 6.0f, 5.0f, 4.0f, 3.0f, 2.0f, 1.0f};
  const float saved = y[0];
  const std::size_t row_ptr[3] = {0, 1, 2};
  const std::uint32_t col[2] = {1, 0};

  if (simd::gemm_rows(x, 4, x, 2, y, 0, 2)) return 2;
  if (simd::gemm_at_b_rows(x, 2, 4, x, 4, y, 0, 2)) return 12;
  if (simd::spmm_rows(row_ptr, col, x, x, 4, y, 0, 2)) return 13;

  // A refused kernel must not have written anything.
  if (y[0] != saved) return 11;
  return 0;
}
