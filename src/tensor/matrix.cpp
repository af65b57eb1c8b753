#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/parallel.h"
#include "common/trace.h"
#include "tensor/simd/simd.h"

namespace gcnt {

namespace {
// GEMM work split (run_gemm): output units of kUnitRows x kUnitCols (the
// row count is a multiple of every target's register-tile height), chain
// blocks of kDepth terms, and the multiply-add count below which the
// pool's dispatch overhead dominates and the call stays serial.
constexpr std::size_t kUnitRows = 48;
constexpr std::size_t kUnitCols = 64;
constexpr std::size_t kDepth = 256;
constexpr std::size_t kMinParallelWork = std::size_t{1} << 18;
}  // namespace

void Matrix::xavier_init(Rng& rng) {
  const double bound =
      std::sqrt(6.0 / static_cast<double>(rows_ + cols_ + 1));
  for (float& w : data_) {
    w = static_cast<float>(rng.uniform(-bound, bound));
  }
}

void Matrix::axpy(float alpha, const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("axpy: shape mismatch");
  }
  simd_ops().axpy(data_.data(), other.data_.data(), alpha, data_.size());
}

void Matrix::scale(float alpha) noexcept {
  simd_ops().scale(data_.data(), alpha, data_.size());
}

float Matrix::dot(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("dot: shape mismatch");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    acc += static_cast<double>(data_[i]) * other.data_[i];
  }
  return static_cast<float>(acc);
}

void gather_rows(const Matrix& src, const std::vector<std::uint32_t>& rows,
                 Matrix& out) {
  out.resize(rows.size(), src.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const float* in = src.row(rows[i]);
    std::copy(in, in + src.cols(), out.row(i));
  }
}

void scatter_rows(const Matrix& compact, const std::vector<std::uint32_t>& rows,
                  Matrix& dst) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const float* in = compact.row(i);
    std::copy(in, in + compact.cols(), dst.row(rows[i]));
  }
}

void grow_rows(Matrix& m, std::size_t new_rows) {
  if (new_rows <= m.rows()) return;
  const std::size_t old_size = m.size();
  if (new_rows * m.cols() > m.capacity()) {
    m.reserve((new_rows + new_rows / 8) * m.cols());
  }
  m.resize_for_overwrite(new_rows, m.cols());
  std::fill(m.data() + old_size, m.data() + m.size(), 0.0f);
}

namespace {

/// Runs `g` on the kernel pool. The output is cut into units of
/// kUnitRows x kUnitCols, handed out in contiguous runs, and each unit's
/// chain runs in depth blocks of kDepth (beta = 1 after the first, the
/// epilogue on the last), so a thread's slice of A and B stays in cache
/// while it sweeps its units. Every element's chain stays one ascending
/// sequence inside one unit, so no split changes a bit.
void run_gemm(const GemmBlock& g) {
  const std::size_t row_units = (g.m + kUnitRows - 1) / kUnitRows;
  const std::size_t col_units = (g.n + kUnitCols - 1) / kUnitCols;
  const std::size_t units = row_units * col_units;
  const std::size_t depth_blocks =
      g.k == 0 ? 1 : (g.k + kDepth - 1) / kDepth;
  const bool parallel = g.m * g.n * g.k >= kMinParallelWork;
  const SimdOps& ops = simd_ops();
  parallel_blocks(units, parallel ? 2 : units + 1,
                  [&](std::size_t u0, std::size_t u1) {
    for (std::size_t d = 0; d < depth_blocks; ++d) {
      const std::size_t p0 = d * kDepth;
      const bool last = d + 1 == depth_blocks;
      for (std::size_t u = u0; u < u1; ++u) {
        const std::size_t i0 = (u / col_units) * kUnitRows;
        const std::size_t j0 = (u % col_units) * kUnitCols;
        GemmBlock t = g;
        t.m = std::min(kUnitRows, g.m - i0);
        t.n = std::min(kUnitCols, g.n - j0);
        t.k = std::min(kDepth, g.k - p0);
        t.a = g.a + i0 * g.a_row + p0 * g.a_col;
        t.b = g.b + p0 * g.ldb + j0;
        t.c = g.c + i0 * g.ldc + j0;
        if (d > 0) t.beta = 1.0f;
        t.bias = last && g.bias != nullptr ? g.bias + j0 : nullptr;
        t.relu = last && g.relu;
        ops.gemm(t);
      }
    }
  });
}

}  // namespace

void gemm(const Matrix& a, const Matrix& b, Matrix& out, bool transpose_a,
          bool transpose_b, float alpha, float beta) {
  GCNT_KERNEL_SCOPE("gemm");
  const std::size_t m = transpose_a ? a.cols() : a.rows();
  const std::size_t k = transpose_a ? a.rows() : a.cols();
  const std::size_t kb = transpose_b ? b.cols() : b.rows();
  const std::size_t n = transpose_b ? b.rows() : b.cols();
  if (k != kb) throw std::invalid_argument("gemm: inner dimension mismatch");

  if (beta == 0.0f) {
    out.resize_for_overwrite(m, n);
  } else if (out.rows() != m || out.cols() != n) {
    throw std::invalid_argument("gemm: output shape mismatch");
  }

  // op(A) is read in place through its strides; op(B) must have unit
  // column stride, so a transposed B (at most layer width squared in the
  // model) is packed once per call.
  std::vector<float> packed;
  const float* bp = b.data();
  std::size_t ldb = b.cols();
  if (transpose_b) {
    packed.resize(k * n);
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b.row(j);
      for (std::size_t p = 0; p < k; ++p) packed[p * n + j] = brow[p];
    }
    bp = packed.data();
    ldb = n;
  }

  run_gemm({.m = m,
            .n = n,
            .k = k,
            .a = a.data(),
            .a_row = transpose_a ? 1 : a.cols(),
            .a_col = transpose_a ? a.cols() : 1,
            .b = bp,
            .ldb = ldb,
            .c = out.data(),
            .ldc = n,
            .alpha = alpha,
            .beta = beta});
}

void gemm_bias_act(const Matrix& a, const Matrix& b, const Matrix& bias,
                   Matrix& out, bool relu) {
  GCNT_KERNEL_SCOPE("gemm_bias_act");
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  if (k != b.rows()) {
    throw std::invalid_argument("gemm_bias_act: inner dimension mismatch");
  }
  if (bias.rows() != 1 || bias.cols() != n) {
    throw std::invalid_argument("gemm_bias_act: bias shape mismatch");
  }
  out.resize_for_overwrite(m, n);
  run_gemm({.m = m,
            .n = n,
            .k = k,
            .a = a.data(),
            .a_row = k,
            .a_col = 1,
            .b = b.data(),
            .ldb = n,
            .c = out.data(),
            .ldc = n,
            .bias = bias.row(0),
            .relu = relu});
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix out;
  gemm(a, b, out, false, false);
  return out;
}

}  // namespace gcnt
