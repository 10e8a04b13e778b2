#pragma once
/// \file matrix.hpp
/// Dense row-major float matrix — the value type of the autograd engine.
/// Deliberately minimal: storage, element access, a few BLAS-1/3 kernels,
/// and seeded random initialization. All heavier algebra lives in the
/// executor's op cases (executor.cpp), where forward and backward stay
/// side by side.

#include <cassert>
#include <cstddef>
#include <random>
#include <vector>

namespace ns::nn {

/// Dense row-major matrix of floats.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix zeros(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, 0.0f);
  }
  static Matrix ones(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, 1.0f);
  }

  /// Xavier/Glorot-uniform initialization, deterministic in `rng`.
  static Matrix xavier(std::size_t rows, std::size_t cols,
                       std::mt19937_64& rng);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Pre-allocates backing storage for `elems` floats (shape unchanged).
  /// A later `reshape` within this capacity performs no heap allocation —
  /// the contract the executor's planned workspace relies on.
  void reserve(std::size_t elems) { data_.reserve(elems); }

  /// Floats the backing storage can hold without reallocating.
  std::size_t capacity() const { return data_.capacity(); }

  /// Re-dimensions in place to rows×cols. Contents are unspecified (newly
  /// exposed elements are zero, reused ones keep stale values); callers
  /// must fully overwrite or `fill` first. Never allocates when
  /// rows*cols <= capacity().
  void reshape(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    // NS_SUPPRESS(allocation): resize within reserve()d capacity never
    // reallocates (the executor reserves peak slot extents at bind time);
    // growth happens only on first use of a larger shape.
    data_.resize(rows * cols);
  }

  /// this += other (same shape).
  void add_in_place(const Matrix& other);

  /// this *= s.
  void scale_in_place(float s);

  /// Frobenius norm.
  float frobenius_norm() const;

  /// Sum of all entries.
  float sum() const;

  bool same_shape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// C = A * B.
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A^T * B.
Matrix matmul_at_b(const Matrix& a, const Matrix& b);

/// C = A * B^T.
Matrix matmul_a_bt(const Matrix& a, const Matrix& b);

// `_into` variants write into a caller-shaped output and allocate nothing
// themselves; the allocating forms above are thin wrappers. Results are
// bitwise identical either way (same kernels, same accumulation order).
// `c` must already have the product's shape and must not alias an input.

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c);
void matmul_at_b_into(const Matrix& a, const Matrix& b, Matrix& c);
void matmul_a_bt_into(const Matrix& a, const Matrix& b, Matrix& c);

/// Max |a - b| over all entries (shapes must match).
float max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace ns::nn
