#include "nn/sparse.hpp"

#include <algorithm>
#include <numeric>

#include "nn/kernels_simd.hpp"
#include "runtime/thread_pool.hpp"

namespace ns::nn {
namespace {

/// Below this many multiply-adds SpMM runs inline (see matrix.cpp).
constexpr std::size_t kMinParallelOps = std::size_t{1} << 15;

}  // namespace

runtime::Mutex SparseMatrix::transpose_mutex_;

SparseMatrix SparseMatrix::from_coo(std::size_t rows, std::size_t cols,
                                    const std::vector<std::uint32_t>& row_idx,
                                    const std::vector<std::uint32_t>& col_idx,
                                    const std::vector<float>& values) {
  assert(row_idx.size() == col_idx.size() && row_idx.size() == values.size());
  SparseMatrix s;
  s.rows_ = rows;
  s.cols_ = cols;
  s.row_ptr_.assign(rows + 1, 0);
  for (std::uint32_t r : row_idx) {
    assert(r < rows);
    ++s.row_ptr_[r + 1];
  }
  std::partial_sum(s.row_ptr_.begin(), s.row_ptr_.end(), s.row_ptr_.begin());
  s.col_.resize(values.size());
  s.val_.resize(values.size());
  std::vector<std::size_t> cursor(s.row_ptr_.begin(), s.row_ptr_.end() - 1);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::size_t slot = cursor[row_idx[i]]++;
    s.col_[slot] = col_idx[i];
    s.val_[slot] = values[i];
  }
  return s;
}

void SparseMatrix::multiply_into(const Matrix& x, Matrix& y) const {
  assert(x.rows() == cols_);
  assert(y.rows() == rows_ && y.cols() == x.cols());
  // Each output row is owned by exactly one thread and accumulates its
  // edges in CSR order, so the result is bitwise independent of the thread
  // count. The single-thread case stays on the inline path so no
  // std::function is ever constructed (see matrix.cpp). The vector tier
  // writes every element of its rows; only the scalar loop clears them.
  const auto rows_body = [&](std::size_t r0, std::size_t r1) {
    if (simd::spmm_rows(row_ptr_.data(), col_.data(), val_.data(), x.data(),
                        x.cols(), y.data(), r0, r1)) {
      return;
    }
    for (std::size_t r = r0; r < r1; ++r) {
      float* yrow = y.data() + r * y.cols();
      std::fill(yrow, yrow + y.cols(), 0.0f);
      for (std::size_t e = row_ptr_[r]; e < row_ptr_[r + 1]; ++e) {
        const float w = val_[e];
        const float* xrow = x.data() + col_[e] * x.cols();
        for (std::size_t j = 0; j < x.cols(); ++j) yrow[j] += w * xrow[j];
      }
    }
  };
  if (nnz() * x.cols() < kMinParallelOps ||
      runtime::global_pool().effective_size() <= 1) {
    rows_body(0, rows_);
  } else {
    // NS_SUPPRESS(blocking, allocation): pool dispatch is taken only above
    // the kMinParallelOps work floor, where latency is dominated by the
    // SpMM itself; steady-state per-clause queries stay on the inline
    // branch above.
    runtime::global_pool().parallel_for(rows_, rows_body);
  }
}

Matrix SparseMatrix::multiply(const Matrix& x) const {
  Matrix y(rows_, x.cols());
  multiply_into(x, y);
  return y;
}

const SparseMatrix& SparseMatrix::transposed() const {
  runtime::MutexLock lock(transpose_mutex_);
  if (!transpose_cache_) {
    transpose_cache_ =
        std::make_shared<const SparseMatrix>(materialize_transposed());
  }
  return *transpose_cache_;
}

SparseMatrix SparseMatrix::materialize_transposed() const {
  std::vector<std::uint32_t> r, c;
  std::vector<float> v;
  r.reserve(nnz());
  c.reserve(nnz());
  v.reserve(nnz());
  for (std::size_t row = 0; row < rows_; ++row) {
    for (std::size_t e = row_ptr_[row]; e < row_ptr_[row + 1]; ++e) {
      r.push_back(col_[e]);
      c.push_back(static_cast<std::uint32_t>(row));
      v.push_back(val_[e]);
    }
  }
  return from_coo(cols_, rows_, r, c, v);
}

void SparseMatrix::normalize_rows(const std::vector<float>& divisor) {
  assert(divisor.size() == rows_);
  {
    // The values change, so the cached Sᵀ is stale. Locked: a concurrent
    // transposed() reader may be touching the shared_ptr (the annotation
    // gate surfaced this reset as the one unguarded access).
    runtime::MutexLock lock(transpose_mutex_);
    transpose_cache_.reset();
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    const float d = divisor[r];
    if (d == 0.0f) continue;
    for (std::size_t e = row_ptr_[r]; e < row_ptr_[r + 1]; ++e) val_[e] /= d;
  }
}

void SparseMatrix::normalize_rows_by_degree() {
  std::vector<float> degree(rows_, 0.0f);
  for (std::size_t r = 0; r < rows_; ++r) {
    degree[r] = static_cast<float>(row_ptr_[r + 1] - row_ptr_[r]);
  }
  normalize_rows(degree);
}

}  // namespace ns::nn
