#pragma once
// Dense row-major float32 matrix with the handful of BLAS-like operations
// the GCN and the classical baselines need. Deliberately small: this is an
// owning value type with explicit, allocation-free compute kernels.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/debug_assert.h"
#include "common/rng.h"

namespace gcnt {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) noexcept {
    GCNT_DEBUG_ASSERT(r < rows_ && c < cols_, "Matrix::at out of range");
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const noexcept {
    GCNT_DEBUG_ASSERT(r < rows_ && c < cols_, "Matrix::at out of range");
    return data_[r * cols_ + c];
  }
  float* row(std::size_t r) noexcept {
    GCNT_DEBUG_ASSERT(r < rows_, "Matrix::row out of range");
    return data_.data() + r * cols_;
  }
  const float* row(std::size_t r) const noexcept {
    GCNT_DEBUG_ASSERT(r < rows_, "Matrix::row out of range");
    return data_.data() + r * cols_;
  }
  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }

  void fill(float value) noexcept {
    std::fill(data_.begin(), data_.end(), value);
  }
  /// Reshapes and fills. Reuses the existing allocation when the new
  /// element count fits in capacity() — the ForwardWorkspace zero-alloc
  /// contract relies on this.
  void resize(std::size_t rows, std::size_t cols, float fill = 0.0f) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
  }

  /// Reshapes without touching existing contents: when the new element
  /// count fits the current size, no element is written at all (unlike
  /// resize(), which refills everything). Callers must overwrite every
  /// element before reading it — gemm uses this to skip the full prefill
  /// pass and write each output tile while it is cache-hot.
  void resize_for_overwrite(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Allocated element capacity (>= size()).
  std::size_t capacity() const noexcept { return data_.capacity(); }
  /// Grows capacity to at least `elements` without changing the shape.
  void reserve(std::size_t elements) { data_.reserve(elements); }

  /// Becomes a copy of `other`, reusing this matrix's allocation when it
  /// is large enough (operator= may reallocate; this never shrinks).
  void copy_from(const Matrix& other) {
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_.assign(other.data_.begin(), other.data_.end());
  }

  /// Xavier/Glorot uniform initialization (for layer weights).
  void xavier_init(Rng& rng);

  /// this += alpha * other (shapes must match).
  void axpy(float alpha, const Matrix& other);
  /// this *= alpha.
  void scale(float alpha) noexcept;

  /// Frobenius-style elementwise dot product: sum(this .* other).
  float dot(const Matrix& other) const;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// out.row(i) = src.row(rows[i]): a compact rows.size() x src.cols()
/// copy (capacity-reusing).
void gather_rows(const Matrix& src, const std::vector<std::uint32_t>& rows,
                 Matrix& out);

/// dst.row(rows[i]) = compact.row(i), the inverse of gather_rows.
void scatter_rows(const Matrix& compact, const std::vector<std::uint32_t>& rows,
                  Matrix& dst);

/// Grows `m` to new_rows rows when it has fewer, keeping the existing rows
/// bitwise and zero-filling the new ones. Grows in place while capacity()
/// allows; otherwise reallocates with an eighth of new_rows as headroom, so
/// a run of small appends (one OP per call) reallocates a bounded number of
/// times. Untouched headroom pages stay out of the resident set.
void grow_rows(Matrix& m, std::size_t new_rows);

/// out = alpha * op(a) * op(b) + beta * out, with op = optional transpose.
/// `out` is reshaped (not prefilled) to the result shape when beta == 0.
///
/// Accumulation policy — one chain per output element, the same for all
/// four transpose variants, every thread count and every tile split:
///
///   acc = beta == 0 ? +0 : beta * out(i, j)
///   for p = 0, 1, ..., k-1:  av = alpha * op(a)(i, p)
///                            if (av != 0) acc = madd(av, op(b)(p, j), acc)
///
/// where madd is one fused multiply-add (std::fmaf) on the AVX2/AVX-512
/// targets and acc + av * b (two roundings) on scalar — the only
/// difference between targets (tensor/simd/simd.h, GemmBlock).
/// Zero-operand rule: a zero av is skipped, so it masks a NaN or Inf in b;
/// a NaN in a is a term and propagates; a -0 start (beta != 0) is kept by
/// skipped terms. The vector targets run the chain as an MR x NR register
/// tile and re-run the per-term loop for the rare rows where dropping the
/// skip could change a bit (tensor/simd/gemm_chain.h), so results are
/// bitwise identical across variants, threads and the AVX2/AVX-512 pair.
/// alpha != 1 runs the per-term loop throughout (no production caller).
void gemm(const Matrix& a, const Matrix& b, Matrix& out, bool transpose_a,
          bool transpose_b, float alpha = 1.0f, float beta = 0.0f);

/// Fused dense layer: out = act(a * b + bias), with bias a 1 x n row
/// broadcast over output rows and act = ReLU when `relu` (identity
/// otherwise). The epilogue (acc + bias, then max(v, 0)) runs on each
/// register tile as its chain completes — one pass over the output — and
/// is the same per-element sequence as gemm + bias add + Relu::forward.
void gemm_bias_act(const Matrix& a, const Matrix& b, const Matrix& bias,
                   Matrix& out, bool relu);

/// Convenience: a * b.
Matrix matmul(const Matrix& a, const Matrix& b);

}  // namespace gcnt
