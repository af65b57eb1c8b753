#include "tensor/sparse.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/debug_assert.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "tensor/simd/simd.h"

namespace gcnt {

namespace {

// Below these sizes the pool dispatch overhead exceeds the kernel cost and
// the work runs inline on the calling thread.
constexpr std::size_t kMinParallelRows = 128;
constexpr std::size_t kMinParallelNnz = 1 << 15;

/// Parallel occurrence count: counts[i + 1] = #occurrences of i in `index`.
/// Per-block histograms reduced in fixed block order keep the result (and
/// integer sums make it trivially) identical for any thread count.
void count_occurrences(const std::vector<std::uint32_t>& index,
                       std::vector<std::uint32_t>& counts) {
  const BlockPlan plan = plan_blocks(index.size(), kMinParallelNnz);
  if (plan.count <= 1) {
    for (std::uint32_t i : index) {
      GCNT_DEBUG_ASSERT(i + 1 < counts.size(),
                        "count_occurrences: index out of range");
      ++counts[i + 1];
    }
    return;
  }
  std::vector<std::vector<std::uint32_t>> local(plan.count);
  run_blocks(plan, [&](std::size_t block, std::size_t begin, std::size_t end) {
    auto& histogram = local[block];
    histogram.assign(counts.size(), 0);
    for (std::size_t k = begin; k < end; ++k) {
      GCNT_DEBUG_ASSERT(index[k] + 1 < counts.size(),
                        "count_occurrences: index out of range");
      ++histogram[index[k] + 1];
    }
  });
  parallel_blocks(counts.size(), kMinParallelRows,
                  [&](std::size_t begin, std::size_t end) {
                    for (const auto& histogram : local) {
                      for (std::size_t i = begin; i < end; ++i) {
                        counts[i] += histogram[i];
                      }
                    }
                  });
}

/// The CSR index arrays (row_ptr, col_index, per-row cursors) are
/// 32-bit. Anything that must be representable as an index — row ids,
/// column ids, nonzero offsets — is checked through here so a graph
/// beyond the index width raises a typed resource error instead of
/// wrapping. 0xFFFFFFFF itself is excluded: row_ptr holds nnz as its
/// last entry and BFS-style consumers reserve it as a sentinel.
std::uint32_t checked_index32(std::size_t value, const char* what) {
  if (value >= 0xFFFFFFFFull) {
    throw Error(ErrorKind::kResource,
                std::string(what) + " exceeds 32-bit sparse index range (" +
                    std::to_string(value) + ")");
  }
  return static_cast<std::uint32_t>(value);
}

/// Resizes to n, reserving n + n/8 when the capacity runs out so a run of
/// small appends reallocates a bounded number of times (as grow_rows).
template <typename T>
void grow_to(std::vector<T>& v, std::size_t n, T fill = T{}) {
  if (n > v.capacity()) v.reserve(n + n / 8);
  v.resize(n, fill);
}

}  // namespace

void CooMatrix::add_checked(std::uint32_t r, std::uint32_t c, float value) {
  if (r >= rows || c >= cols) {
    throw std::out_of_range("CooMatrix::add_checked: coordinate out of range");
  }
  row_index.push_back(r);
  col_index.push_back(c);
  values.push_back(value);
}

void CooMatrix::reshape(std::size_t r, std::size_t c) {
  if (r < rows || c < cols) {
    throw std::invalid_argument("CooMatrix::reshape: shrinking not allowed");
  }
  rows = r;
  cols = c;
}

CsrMatrix CsrMatrix::from_coo(const CooMatrix& coo) {
  GCNT_KERNEL_SCOPE("csr_build");
  // Checked narrowing before any allocation: past ~2^32 nonzeros the
  // 32-bit row_ptr / per-row cursors would wrap (and a 2^32-row shape
  // would allocate terabytes of row_ptr first).
  checked_index32(coo.rows, "CsrMatrix::from_coo: row count");
  checked_index32(coo.cols, "CsrMatrix::from_coo: column count");
  checked_index32(coo.nnz(), "CsrMatrix::from_coo: nonzero count");
  CsrMatrix csr;
  csr.rows_ = coo.rows;
  csr.cols_ = coo.cols;
  csr.row_ptr_.assign(coo.rows + 1, 0);

  count_occurrences(coo.row_index, csr.row_ptr_);
  for (std::size_t r = 0; r < coo.rows; ++r) {
    csr.row_ptr_[r + 1] += csr.row_ptr_[r];
  }

  // Scatter entries into row buckets (serial: the per-row cursors make the
  // insertion order part of the duplicate-merge contract below).
  std::vector<std::uint32_t> cursor(csr.row_ptr_.begin(),
                                    csr.row_ptr_.end() - 1);
  csr.col_index_.assign(coo.nnz(), 0);
  csr.values_.assign(coo.nnz(), 0.0f);
  for (std::size_t k = 0; k < coo.nnz(); ++k) {
    const std::uint32_t slot = cursor[coo.row_index[k]]++;
    csr.col_index_[slot] = coo.col_index[k];
    csr.values_[slot] = coo.values[k];
  }

  // Merge duplicate columns within each row (sorting by insertion-stable
  // counting per row keeps this O(nnz + cols) without a comparator sort).
  std::vector<std::uint32_t> merged_cols;
  std::vector<float> merged_vals;
  merged_cols.reserve(csr.col_index_.size());
  merged_vals.reserve(csr.values_.size());
  std::vector<std::uint32_t> new_row_ptr(csr.rows_ + 1, 0);
  std::vector<std::int64_t> seen_at(csr.cols_, -1);
  for (std::size_t r = 0; r < csr.rows_; ++r) {
    const std::size_t begin = csr.row_ptr_[r];
    const std::size_t end = csr.row_ptr_[r + 1];
    const std::size_t out_begin = merged_cols.size();
    for (std::size_t k = begin; k < end; ++k) {
      const std::uint32_t c = csr.col_index_[k];
      if (seen_at[c] >= static_cast<std::int64_t>(out_begin)) {
        merged_vals[static_cast<std::size_t>(seen_at[c])] += csr.values_[k];
      } else {
        seen_at[c] = static_cast<std::int64_t>(merged_cols.size());
        merged_cols.push_back(c);
        merged_vals.push_back(csr.values_[k]);
      }
    }
    new_row_ptr[r + 1] = static_cast<std::uint32_t>(merged_cols.size());
  }
  csr.col_index_ = std::move(merged_cols);
  csr.values_ = std::move(merged_vals);
  csr.row_ptr_ = std::move(new_row_ptr);
  return csr;
}

void CsrMatrix::spmm(const Matrix& dense, Matrix& out, float alpha,
                     float beta) const {
  GCNT_KERNEL_SCOPE("spmm");
  if (dense.rows() != cols_) {
    throw std::invalid_argument("spmm: dimension mismatch");
  }
  const std::size_t n = dense.cols();
  if (beta == 0.0f) {
    // Like gemm: beta == 0 always reshapes (reusing capacity), so a
    // workspace buffer can be fed back across layers of different width.
    out.resize(rows_, n, 0.0f);
  } else {
    if (out.rows() != rows_ || out.cols() != n) {
      throw std::invalid_argument("spmm: output shape mismatch");
    }
    out.scale(beta);
  }
  // Row-blocked across the kernel pool: each output row is produced by
  // exactly one block, and each output element accumulates its nonzeros
  // in fixed ascending-k order, so the result is bitwise identical for
  // any thread count.
  const SimdOps& ops = simd_ops();
  parallel_blocks(
      rows_, kMinParallelRows,
      [&](std::size_t row_begin, std::size_t row_end) {
        for (std::size_t r = row_begin; r < row_end; ++r) {
          float* orow = out.row(r);
          for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
            GCNT_DEBUG_ASSERT(col_index_[k] < cols_,
                              "spmm: column index out of range");
            const float av = alpha * values_[k];
            ops.axpy(orow, dense.row(col_index_[k]), av, n);
          }
        }
      });
}

void CsrMatrix::spmm_rows(const std::vector<std::uint32_t>& row_ids,
                          const Matrix& dense, Matrix& out,
                          float alpha) const {
  GCNT_KERNEL_SCOPE("spmm_rows");
  if (dense.rows() != cols_) {
    throw std::invalid_argument("spmm_rows: dimension mismatch");
  }
  for (const std::uint32_t r : row_ids) {
    if (r >= rows_) {
      throw std::out_of_range("spmm_rows: row id out of range");
    }
  }
  const std::size_t n = dense.cols();
  out.resize(row_ids.size(), n, 0.0f);
  // Same ascending-k per-element order as spmm(), so compact row i is
  // bit-identical to full-output row row_ids[i] for any thread count.
  const SimdOps& ops = simd_ops();
  parallel_blocks(row_ids.size(), kMinParallelRows,
                  [&](std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      const std::uint32_t r = row_ids[i];
                      float* orow = out.row(i);
                      for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1];
                           ++k) {
                        GCNT_DEBUG_ASSERT(col_index_[k] < cols_,
                                          "spmm_rows: column index out of "
                                          "range");
                        const float av = alpha * values_[k];
                        ops.axpy(orow, dense.row(col_index_[k]), av, n);
                      }
                    }
                  });
}

CsrMatrix CsrMatrix::from_parts(std::size_t rows, std::size_t cols,
                                std::vector<std::uint32_t> row_ptr,
                                std::vector<std::uint32_t> col_index,
                                std::vector<float> values) {
  checked_index32(rows, "CsrMatrix::from_parts: row count");
  checked_index32(cols, "CsrMatrix::from_parts: column count");
  checked_index32(values.size(), "CsrMatrix::from_parts: nonzero count");
  const auto fail = [](const char* what) {
    throw Error(ErrorKind::kInternal,
                std::string("CsrMatrix::from_parts: ") + what);
  };
  if (row_ptr.size() != rows + 1) fail("row_ptr size mismatch");
  if (row_ptr.front() != 0) fail("row_ptr must start at 0");
  if (col_index.size() != values.size()) fail("col_index/values mismatch");
  if (row_ptr.back() != values.size()) fail("row_ptr end != nnz");
  for (std::size_t r = 0; r < rows; ++r) {
    if (row_ptr[r] > row_ptr[r + 1]) fail("row_ptr not monotone");
  }
  for (const std::uint32_t c : col_index) {
    if (c >= cols) fail("column index out of range");
  }
  CsrMatrix csr;
  csr.rows_ = rows;
  csr.cols_ = cols;
  csr.row_ptr_ = std::move(row_ptr);
  csr.col_index_ = std::move(col_index);
  csr.values_ = std::move(values);
  return csr;
}

CsrMatrix CsrMatrix::transpose() const {
  GCNT_KERNEL_SCOPE("csr_transpose");
  checked_index32(rows_, "CsrMatrix::transpose: row count");
  checked_index32(cols_, "CsrMatrix::transpose: column count");
  checked_index32(nnz(), "CsrMatrix::transpose: nonzero count");
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.assign(cols_ + 1, 0);
  count_occurrences(col_index_, t.row_ptr_);
  for (std::size_t r = 0; r < cols_; ++r) t.row_ptr_[r + 1] += t.row_ptr_[r];
  std::vector<std::uint32_t> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  t.col_index_.assign(nnz(), 0);
  t.values_.assign(nnz(), 0.0f);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::uint32_t slot = cursor[col_index_[k]]++;
      t.col_index_[slot] = static_cast<std::uint32_t>(r);
      t.values_[slot] = values_[k];
    }
  }
  return t;
}

void CsrMatrix::apply_appended(const CooMatrix& coo, std::size_t first,
                               CsrMatrix& transposed) {
  GCNT_KERNEL_SCOPE("csr_apply_appended");
  if (coo.rows < rows_ || coo.cols < cols_) {
    throw std::invalid_argument("CsrMatrix::apply_appended: shape shrinks");
  }
  if (transposed.rows_ != cols_ || transposed.cols_ != rows_ ||
      transposed.nnz() != nnz()) {
    throw std::invalid_argument(
        "CsrMatrix::apply_appended: transposed form does not match");
  }
  if (first > coo.nnz()) {
    throw std::invalid_argument(
        "CsrMatrix::apply_appended: first tuple past the list");
  }
  checked_index32(coo.rows, "CsrMatrix::apply_appended: row count");
  checked_index32(coo.cols, "CsrMatrix::apply_appended: column count");
  checked_index32(coo.nnz(), "CsrMatrix::apply_appended: nonzero count");

  // The appended tuples by row, append order kept within a row (from_coo's
  // buckets). Each one adds into the entry its row already holds, else
  // into the entry an earlier appended tuple added, else becomes a new
  // entry at the end of its row: from_coo's merge, summed in the same
  // order.
  std::vector<std::uint32_t> order(coo.nnz() - first);
  std::iota(order.begin(), order.end(), static_cast<std::uint32_t>(first));
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return coo.row_index[a] < coo.row_index[b];
                   });
  std::vector<Entry> own;
  std::size_t row_start = 0;  // the current row's first entry in `own`
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::uint32_t r = coo.row_index[order[i]];
    const std::uint32_t c = coo.col_index[order[i]];
    const float value = coo.values[order[i]];
    if (r >= coo.rows || c >= coo.cols) {
      throw std::out_of_range(
          "CsrMatrix::apply_appended: coordinate out of range");
    }
    if (i == 0 || r != coo.row_index[order[i - 1]]) row_start = own.size();
    const std::size_t row_end = r < rows_ ? row_ptr_[r + 1] : 0;
    std::size_t slot = r < rows_ ? row_ptr_[r] : 0;
    while (slot < row_end && col_index_[slot] != c) ++slot;
    if (slot < row_end) {
      // The transposed copy (row c, column r among ascending columns)
      // takes the sum.
      values_[slot] += value;
      const auto columns = transposed.col_index_.begin();
      const auto last = columns + transposed.row_ptr_[c + 1];
      const auto at =
          std::lower_bound(columns + transposed.row_ptr_[c], last, r);
      GCNT_DEBUG_ASSERT(at != last && *at == r,
                        "apply_appended: transposed entry missing");
      transposed.values_[at - columns] = values_[slot];
      continue;
    }
    const auto same_col = [&](const Entry& e) { return e.col == c; };
    const auto added =
        std::find_if(own.begin() + row_start, own.end(), same_col);
    if (added != own.end()) {
      added->value += value;
    } else {
      own.push_back(Entry{r, c, value});
    }
  }

  // The transposed form lists each row in ascending source-row order.
  std::vector<Entry> flipped;
  flipped.reserve(own.size());
  for (const Entry& e : own) flipped.push_back(Entry{e.col, e.row, e.value});
  std::sort(flipped.begin(), flipped.end(), [](const Entry& a, const Entry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  insert_entries(coo.rows, coo.cols, own, false);
  transposed.insert_entries(coo.cols, coo.rows, flipped, true);
}

void CsrMatrix::insert_entries(std::size_t rows, std::size_t cols,
                               const std::vector<Entry>& entries,
                               bool by_column) {
  const std::size_t old_nnz = nnz();
  grow_to(row_ptr_, rows + 1, static_cast<std::uint32_t>(old_nnz));
  rows_ = rows;
  cols_ = cols;
  if (entries.empty()) return;
  grow_to(col_index_, old_nnz + entries.size());
  grow_to(values_, old_nnz + entries.size());

  // Backward over the touched rows (row_ptr_ still holds the old offsets):
  // the run from a touched row's old end up to the part already moved
  // shifts by the entries inserted at or before that row, in one move;
  // the row's own new entries are merged in on the way down.
  const auto move_up = [&](std::size_t begin, std::size_t end,
                           std::size_t by) {
    std::copy_backward(col_index_.begin() + begin, col_index_.begin() + end,
                       col_index_.begin() + end + by);
    std::copy_backward(values_.begin() + begin, values_.begin() + end,
                       values_.begin() + end + by);
  };
  std::size_t shift = entries.size();
  std::size_t moved_from = old_nnz;
  for (std::size_t j = entries.size(); j > 0;) {
    const std::uint32_t row = entries[j - 1].row;
    const std::size_t begin = row_ptr_[row];
    std::size_t i = row_ptr_[row + 1];
    move_up(i, moved_from, shift);
    std::size_t out = i + shift;
    for (; j > 0 && entries[j - 1].row == row; --j, --shift) {
      const Entry& e = entries[j - 1];
      while (by_column && i > begin && col_index_[i - 1] > e.col) {
        --i;
        --out;
        col_index_[out] = col_index_[i];
        values_[out] = values_[i];
      }
      --out;
      col_index_[out] = e.col;
      values_[out] = e.value;
    }
    moved_from = i;
  }

  std::uint32_t inserted = 0;
  std::size_t k = 0;
  for (std::size_t r = entries.front().row; r < rows; ++r) {
    for (; k < entries.size() && entries[k].row == r; ++k) ++inserted;
    row_ptr_[r + 1] += inserted;
  }
}

}  // namespace gcnt
