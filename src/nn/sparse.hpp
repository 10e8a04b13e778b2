#pragma once
/// \file sparse.hpp
/// CSR sparse matrix with float weights. Used for the (constant) graph
/// adjacency operators inside the neural models: message passing is a
/// sparse-dense product `Y = S · X`, whose backward pass is `dX = Sᵀ · dY`.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/matrix.hpp"
#include "runtime/annotations.hpp"

namespace ns::nn {

/// Compressed sparse row matrix.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Builds from COO triplets (duplicates are summed).
  static SparseMatrix from_coo(std::size_t rows, std::size_t cols,
                               const std::vector<std::uint32_t>& row_idx,
                               const std::vector<std::uint32_t>& col_idx,
                               const std::vector<float>& values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return col_.size(); }

  /// Y = S * X  (dense result, rows() x X.cols()). Row-parallel on the
  /// global runtime pool; bitwise identical for any thread count.
  Matrix multiply(const Matrix& x) const;

  /// Y = S * X into a caller-shaped `y` (rows() x X.cols()); allocates
  /// nothing itself. `multiply` wraps this; results are bitwise identical.
  void multiply_into(const Matrix& x, Matrix& y) const;

  /// Sᵀ, materialized lazily on the first call and cached for the lifetime
  /// of this matrix (the adjacency is constant per instance, so backward
  /// passes reuse one materialization instead of rebuilding it). Thread
  /// safe; copies share the cache; the row-normalizing mutators invalidate
  /// it. The returned transpose carries no cache of its own.
  const SparseMatrix& transposed() const;

  /// Divides every row by `divisor[row]` (no-op rows where divisor is 0);
  /// used for mean aggregation (Eq. 6's 1/|N(v)| factor).
  void normalize_rows(const std::vector<float>& divisor);

  /// Row-normalizes by the count of entries per row (mean aggregation).
  void normalize_rows_by_degree();

  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::uint32_t>& col() const { return col_; }
  const std::vector<float>& val() const { return val_; }

 private:
  SparseMatrix materialize_transposed() const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;   // size rows_+1
  std::vector<std::uint32_t> col_;
  std::vector<float> val_;
  /// Guards lazy transpose materialization across all matrices. Coarse,
  /// but only contended the first time a given adjacency is transposed.
  static runtime::Mutex transpose_mutex_;
  /// Lazily filled by transposed(); shared (not deep-copied) on copy.
  mutable std::shared_ptr<const SparseMatrix> transpose_cache_
      NS_GUARDED_BY(transpose_mutex_);
};

}  // namespace ns::nn
