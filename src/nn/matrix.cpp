#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "nn/kernels_simd.hpp"
#include "runtime/thread_pool.hpp"

namespace ns::nn {
namespace {

/// Below this many multiply-adds the pool dispatch costs more than the
/// loop; run inline. Thresholding never changes results — each output row
/// is computed by exactly one thread with the serial accumulation order.
constexpr std::size_t kMinParallelOps = std::size_t{1} << 15;

/// Parallelizes over output rows when the kernel is big enough. Templated
/// on the body so the inline path (small kernels, or a single-thread pool)
/// never constructs a `runtime::RangeBody` — our capturing lambdas exceed
/// std::function's small-buffer size, and that hidden heap allocation would
/// break the executor's allocation-free inference contract.
template <typename Body>
void for_each_output_row(std::size_t rows, std::size_t total_ops,
                         const Body& body) {
  if (total_ops < kMinParallelOps ||
      runtime::global_pool().effective_size() <= 1) {
    body(0, rows);
    return;
  }
  // NS_SUPPRESS(blocking, allocation): pool dispatch is taken only above
  // the kMinParallelOps work floor; per-clause steady-state inference stays
  // on the inline branch above (ns_lint's hot-path pack tracks the hazard
  // there).
  runtime::global_pool().parallel_for(rows, body);
}

}  // namespace

Matrix Matrix::xavier(std::size_t rows, std::size_t cols,
                      std::mt19937_64& rng) {
  Matrix m(rows, cols);
  const float limit =
      std::sqrt(6.0f / static_cast<float>(rows + cols));
  std::uniform_real_distribution<float> dist(-limit, limit);
  for (float& x : m.data_) x = dist(rng);
  return m;
}

void Matrix::add_in_place(const Matrix& other) {
  assert(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::scale_in_place(float s) {
  for (float& x : data_) x *= s;
}

float Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (float x : data_) acc += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(acc));
}

float Matrix::sum() const {
  double acc = 0.0;
  for (float x : data_) acc += x;
  return static_cast<float>(acc);
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.cols() == b.rows());
  assert(c.rows() == a.rows() && c.cols() == b.cols());
  for_each_output_row(
      a.rows(), a.rows() * a.cols() * b.cols(),
      [&](std::size_t r0, std::size_t r1) {
        // The vector tier writes every element of its rows; only the
        // scalar loop needs them cleared first.
        if (simd::gemm_rows(a.data(), a.cols(), b.data(), b.cols(), c.data(),
                            r0, r1)) {
          return;
        }
        for (std::size_t i = r0; i < r1; ++i) {
          float* crow = c.data() + i * c.cols();
          std::fill(crow, crow + c.cols(), 0.0f);
          for (std::size_t k = 0; k < a.cols(); ++k) {
            const float aik = a.at(i, k);
            if (aik == 0.0f) continue;
            const float* brow = b.data() + k * b.cols();
            for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
          }
        }
      });
}

void matmul_at_b_into(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.rows() == b.rows());
  assert(c.rows() == a.cols() && c.cols() == b.cols());
  // Output row i is column i of A: accumulating k in ascending order keeps
  // the per-element float addition sequence of the serial kernel.
  for_each_output_row(
      a.cols(), a.rows() * a.cols() * b.cols(),
      [&](std::size_t r0, std::size_t r1) {
        if (simd::gemm_at_b_rows(a.data(), a.rows(), a.cols(), b.data(),
                                 b.cols(), c.data(), r0, r1)) {
          return;
        }
        for (std::size_t i = r0; i < r1; ++i) {
          float* crow = c.data() + i * c.cols();
          std::fill(crow, crow + c.cols(), 0.0f);
          for (std::size_t k = 0; k < a.rows(); ++k) {
            const float aki = a.data()[k * a.cols() + i];
            if (aki == 0.0f) continue;
            const float* brow = b.data() + k * b.cols();
            for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
          }
        }
      });
}

void matmul_a_bt_into(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.cols() == b.cols());
  assert(c.rows() == a.rows() && c.cols() == b.rows());
  for_each_output_row(
      a.rows(), a.rows() * a.cols() * b.rows(),
      [&](std::size_t r0, std::size_t r1) {
        for (std::size_t i = r0; i < r1; ++i) {
          const float* arow = a.data() + i * a.cols();
          for (std::size_t j = 0; j < b.rows(); ++j) {
            const float* brow = b.data() + j * b.cols();
            double acc = 0.0;
            for (std::size_t k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
            c.at(i, j) = static_cast<float>(acc);
          }
        }
      });
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  matmul_into(a, b, c);
  return c;
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  matmul_at_b_into(a, b, c);
  return c;
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  matmul_a_bt_into(a, b, c);
  return c;
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
  assert(a.same_shape(b));
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

}  // namespace ns::nn
