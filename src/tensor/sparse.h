#pragma once
// Sparse matrices: incremental COO for construction/graph edits and CSR
// for compute (SpMM).
//
// This is the core of the paper's "high performance" claim (Section 3.4):
// the whole-graph aggregation G_d = A * E_{d-1} becomes one sparse-dense
// multiplication, and inserting an observation point is three appended COO
// tuples instead of a matrix rebuild. CsrMatrix::apply_appended carries
// that to the compute forms: the appended tuples are applied to a built
// CSR and its transpose in place, bit for bit what from_coo + transpose
// of the whole list would give.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace gcnt {

/// Coordinate-format sparse matrix; supports O(1) appends.
struct CooMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::uint32_t> row_index;
  std::vector<std::uint32_t> col_index;
  std::vector<float> values;

  CooMatrix() = default;
  CooMatrix(std::size_t r, std::size_t c) : rows(r), cols(c) {}

  std::size_t nnz() const noexcept { return values.size(); }

  /// Appends one (value, row, col) tuple; grows the shape if needed.
  void add(std::uint32_t r, std::uint32_t c, float value) {
    if (r >= rows) rows = r + 1;
    if (c >= cols) cols = c + 1;
    row_index.push_back(r);
    col_index.push_back(c);
    values.push_back(value);
  }

  /// Appends one tuple but refuses to grow the shape: the incremental OPI
  /// path must have resized the matrix for any appended nodes already, so
  /// an out-of-range coordinate there is a bug, not a resize request.
  /// Throws std::out_of_range.
  void add_checked(std::uint32_t r, std::uint32_t c, float value);

  /// Grows the shape to exactly r x c. Throws std::invalid_argument when
  /// shrinking below the current shape (entries could become dangling).
  void reshape(std::size_t r, std::size_t c);

  /// Fraction of zero entries (the paper reports > 99.95% for its designs).
  double sparsity() const noexcept {
    const double total = static_cast<double>(rows) * static_cast<double>(cols);
    return total == 0.0 ? 1.0 : 1.0 - static_cast<double>(nnz()) / total;
  }
};

/// Compressed sparse row matrix (read-only compute form).
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from COO; duplicate coordinates are summed. The index arrays
  /// are 32-bit, so shapes or nonzero counts that cannot be narrowed
  /// (>= 2^32 - 1) throw Error{kResource} up front — a graph past the
  /// index width fails loudly instead of wrapping silently.
  static CsrMatrix from_coo(const CooMatrix& coo);

  /// Builds directly from validated CSR arrays (moved in): row_ptr must
  /// be monotone with row_ptr[0] == 0 and rows+1 entries, col_index and
  /// values equally long with every column < cols. Used by the sharded
  /// engine to carve per-shard sub-matrices out of a global CSR while
  /// preserving each row's nonzero order exactly (from_coo would merge
  /// and therefore also require re-deriving the insertion order).
  /// Throws Error{kInternal} on any inconsistency.
  static CsrMatrix from_parts(std::size_t rows, std::size_t cols,
                              std::vector<std::uint32_t> row_ptr,
                              std::vector<std::uint32_t> col_index,
                              std::vector<float> values);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t nnz() const noexcept { return values_.size(); }

  const std::vector<std::uint32_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  const std::vector<std::uint32_t>& col_index() const noexcept {
    return col_index_;
  }
  const std::vector<float>& values() const noexcept { return values_; }

  /// out = this * dense (+ beta * out). dense.rows() must equal cols().
  ///
  /// Rows are blocked across the kernel pool (BlockPlan) and every output
  /// element accumulates its nonzeros in ascending-k order, so the result
  /// is bitwise identical for any thread count.
  void spmm(const Matrix& dense, Matrix& out, float alpha = 1.0f,
            float beta = 0.0f) const;

  /// Row-subset SpMM: out.row(i) = alpha * this.row(row_ids[i]) * dense,
  /// with `out` resized to row_ids.size() x dense.cols(). Each compact
  /// output row reproduces the corresponding spmm() row bit-for-bit (same
  /// ascending-k accumulation), which is what lets the incremental
  /// inference engine re-propagate only dirty rows. Throws on out-of-range
  /// row ids or a dimension mismatch.
  void spmm_rows(const std::vector<std::uint32_t>& row_ids,
                 const Matrix& dense, Matrix& out, float alpha = 1.0f) const;

  /// Structural transpose (values preserved).
  CsrMatrix transpose() const;

  /// Applies COO tuples appended after a build, in place and bitwise
  /// equal to a rebuild. On entry *this == from_coo of coo's first
  /// `first` tuples and `transposed` == transpose(); the tuples [first,
  /// coo.nnz()) are the ones appended since then, in append order, and
  /// coo's shape is the new (not smaller) one. On return *this ==
  /// from_coo(coo) and `transposed` == its transpose: a tuple repeating a
  /// coordinate adds into that entry's slot, a new one goes to the end of
  /// its row here and to its ascending place in the transposed row, new
  /// rows start empty. Cost: one backward shift per touched row, O(nnz +
  /// rows) moved, plus O(row length) per tuple. Throws
  /// std::invalid_argument on a shrinking or inconsistent shape or a
  /// `first` past coo.nnz(), std::out_of_range on a coordinate outside
  /// coo's shape.
  void apply_appended(const CooMatrix& coo, std::size_t first,
                      CsrMatrix& transposed);

 private:
  struct Entry {
    std::uint32_t row;
    std::uint32_t col;
    float value;
  };
  /// Grows to rows x cols and inserts `entries` (sorted by row): after the
  /// existing entries of their row, or at their ascending column place
  /// when `by_column`.
  void insert_entries(std::size_t rows, std::size_t cols,
                      const std::vector<Entry>& entries, bool by_column);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint32_t> row_ptr_;
  std::vector<std::uint32_t> col_index_;
  std::vector<float> values_;
};

}  // namespace gcnt
