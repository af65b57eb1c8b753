// Dense and sparse tensor kernels, checked against naive references.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "gemm_reference.h"
#include "tensor/matrix.h"
#include "tensor/simd/simd.h"
#include "tensor/sparse.h"

namespace gcnt {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.at(r, c) = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
  }
  return m;
}

/// Naive O(mnk) reference for all transpose combinations.
Matrix naive_gemm(const Matrix& a, const Matrix& b, bool ta, bool tb,
                  float alpha) {
  const std::size_t m = ta ? a.cols() : a.rows();
  const std::size_t k = ta ? a.rows() : a.cols();
  const std::size_t n = tb ? b.rows() : b.cols();
  Matrix out(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ta ? a.at(p, i) : a.at(i, p);
        const float bv = tb ? b.at(j, p) : b.at(p, j);
        acc += static_cast<double>(av) * bv;
      }
      out.at(i, j) = alpha * static_cast<float>(acc);
    }
  }
  return out;
}

void expect_near(const Matrix& got, const Matrix& want, float tol = 1e-4f) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t r = 0; r < got.rows(); ++r) {
    for (std::size_t c = 0; c < got.cols(); ++c) {
      EXPECT_NEAR(got.at(r, c), want.at(r, c), tol)
          << "at (" << r << ", " << c << ")";
    }
  }
}

TEST(Matrix, ConstructAndAccess) {
  Matrix m(3, 4, 1.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_FLOAT_EQ(m.at(2, 3), 1.5f);
  m.at(1, 2) = -2.0f;
  EXPECT_FLOAT_EQ(m.at(1, 2), -2.0f);
  EXPECT_FLOAT_EQ(m.row(1)[2], -2.0f);
}

TEST(Matrix, GrowRowsKeepsRowsAndZeroFills) {
  Matrix m(3, 4);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(i) - 5.5f;
  }
  m.at(1, 1) = -0.0f;
  m.at(2, 3) = std::numeric_limits<float>::quiet_NaN();
  const Matrix before = m;
  grow_rows(m, 7);
  ASSERT_EQ(m.rows(), 7u);
  ASSERT_EQ(m.cols(), 4u);
  EXPECT_EQ(std::memcmp(m.data(), before.data(), before.size() * sizeof(float)),
            0);
  for (std::size_t i = before.size(); i < m.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(m.data()[i]), 0u) << i;
  }
  grow_rows(m, 2);  // never shrinks
  EXPECT_EQ(m.rows(), 7u);
}

TEST(Matrix, GrowRowsReallocatesBoundedTimes) {
  // One row per call, as the edit path appends one OP at a time: the
  // headroom keeps reallocations geometric (an eighth per step needs about
  // six to double), not one per call.
  Matrix m(1000, 4, 1.0f);
  std::size_t reallocations = 0;
  for (std::size_t rows = 1001; rows <= 2000; ++rows) {
    const std::size_t capacity = m.capacity();
    grow_rows(m, rows);
    m.at(rows - 1, 0) = 2.0f;
    if (m.capacity() != capacity) ++reallocations;
  }
  EXPECT_LE(reallocations, 8u);
  EXPECT_EQ(m.at(999, 3), 1.0f);
  EXPECT_EQ(m.at(1999, 0), 2.0f);
  EXPECT_EQ(m.at(1999, 1), 0.0f);
}

TEST(Matrix, FillAndScale) {
  Matrix m(2, 2, 3.0f);
  m.scale(0.5f);
  EXPECT_FLOAT_EQ(m.at(0, 0), 1.5f);
  m.fill(-1.0f);
  EXPECT_FLOAT_EQ(m.at(1, 1), -1.0f);
}

TEST(Matrix, Axpy) {
  Matrix a(2, 2, 1.0f);
  Matrix b(2, 2, 2.0f);
  a.axpy(0.5f, b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 2.0f);
  Matrix wrong(3, 2);
  EXPECT_THROW(a.axpy(1.0f, wrong), std::invalid_argument);
}

TEST(Matrix, Dot) {
  Matrix a(2, 2);
  Matrix b(2, 2);
  a.at(0, 0) = 1.0f;
  a.at(1, 1) = 2.0f;
  b.at(0, 0) = 3.0f;
  b.at(1, 1) = 4.0f;
  EXPECT_FLOAT_EQ(a.dot(b), 11.0f);
}

TEST(Matrix, XavierInitBounded) {
  Rng rng(5);
  Matrix m(30, 20);
  m.xavier_init(rng);
  const double bound = std::sqrt(6.0 / (30 + 20 + 1));
  bool any_nonzero = false;
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::abs(m.data()[i]), bound);
    any_nonzero |= m.data()[i] != 0.0f;
  }
  EXPECT_TRUE(any_nonzero);
}

struct GemmCase {
  bool ta, tb;
};
class GemmTransposes : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTransposes, MatchesNaive) {
  const auto [ta, tb] = GetParam();
  Rng rng(42);
  // Shapes chosen so op(a) is 5x7 and op(b) is 7x3.
  const Matrix a = ta ? random_matrix(7, 5, rng) : random_matrix(5, 7, rng);
  const Matrix b = tb ? random_matrix(3, 7, rng) : random_matrix(7, 3, rng);
  Matrix out;
  gemm(a, b, out, ta, tb, 1.25f);
  expect_near(out, naive_gemm(a, b, ta, tb, 1.25f));
}

INSTANTIATE_TEST_SUITE_P(AllCombos, GemmTransposes,
                         ::testing::Values(GemmCase{false, false},
                                           GemmCase{true, false},
                                           GemmCase{false, true},
                                           GemmCase{true, true}));

TEST(Gemm, BetaAccumulates) {
  Rng rng(7);
  const Matrix a = random_matrix(4, 4, rng);
  const Matrix b = random_matrix(4, 4, rng);
  Matrix out(4, 4, 1.0f);
  gemm(a, b, out, false, false, 1.0f, 2.0f);
  Matrix want = naive_gemm(a, b, false, false, 1.0f);
  for (std::size_t i = 0; i < want.size(); ++i) want.data()[i] += 2.0f;
  expect_near(out, want);
}

Matrix transposed(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) t.at(c, r) = m.at(r, c);
  }
  return t;
}

/// gemm in all four transpose variants (beta = 0 and, from `c0`, beta =
/// 1) and gemm_bias_act against the one-chain oracle, bit for bit, on
/// every target at 1 and 8 threads.
void expect_gemm_matches_oracle(const Matrix& a, const Matrix& b,
                                const Matrix& c0, const std::string& label) {
  Rng rng(17);
  const Matrix bias = random_matrix(1, b.cols(), rng);
  const Matrix at = transposed(a);
  const Matrix bt = transposed(b);
  for (const SimdTarget target :
       {SimdTarget::kScalar, SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (!simd_target_available(target)) continue;
    ASSERT_TRUE(set_simd_target(target));
    const Matrix want = one_chain_gemm(a, b, target);
    ChainOptions acc;
    acc.beta = 1.0f;
    acc.c0 = &c0;
    const Matrix want_acc = one_chain_gemm(a, b, target, acc);
    ChainOptions fused;
    fused.bias = &bias;
    fused.relu = true;
    const Matrix want_fused = one_chain_gemm(a, b, target, fused);
    for (const int threads : {1, 8}) {
      set_kernel_threads(threads);
      const std::string where = label + " " + simd_target_name() +
                                " n=" + std::to_string(b.cols()) +
                                " threads=" + std::to_string(threads);
      for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
          Matrix out;
          gemm(ta ? at : a, tb ? bt : b, out, ta, tb);
          EXPECT_EQ(first_bit_difference(out, want), -1)
              << "ta=" << ta << " tb=" << tb << " " << where;
          out = c0;
          gemm(ta ? at : a, tb ? bt : b, out, ta, tb, 1.0f, 1.0f);
          EXPECT_EQ(first_bit_difference(out, want_acc), -1)
              << "beta=1 ta=" << ta << " tb=" << tb << " " << where;
        }
      }
      Matrix out;
      gemm_bias_act(a, b, bias, out, /*relu=*/true);
      EXPECT_EQ(first_bit_difference(out, want_fused), -1)
          << "gemm_bias_act " << where;
    }
    set_kernel_threads(0);
  }
  reset_simd_target();
}

// The zero-operand rule of the one-chain policy (tensor/matrix.h): a term
// whose A value is zero is skipped, so a zero in A masks NaN/Inf in B,
// while a NaN in A is a term and propagates. Pinned for all four variants
// and gemm_bias_act, on every target, at 1 and 8 threads, for the wide
// tile (n = 40) and the n = 2 path; results must match the per-element
// oracle bit for bit.
TEST(Gemm, ZeroOperandSemanticsPinned) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::size_t m = 40, k = 20;
  for (const std::size_t n : {std::size_t{2}, std::size_t{40}}) {
    Rng rng(91 + n);
    Matrix a = random_matrix(m, k, rng);
    Matrix b = random_matrix(k, n, rng);
    for (std::size_t j = 0; j < n; ++j) {
      b.at(3, j) = j % 3 == 0 ? nan : (j % 3 == 1 ? inf : -inf);
    }
    for (std::size_t i = 0; i < m; ++i) a.at(i, 3) = i == 5 ? 1.0f : 0.0f;
    a.at(7, 2) = nan;
    for (const SimdTarget target :
         {SimdTarget::kScalar, SimdTarget::kAvx2, SimdTarget::kAvx512}) {
      if (!simd_target_available(target)) continue;
      const Matrix want = one_chain_gemm(a, b, target);
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_TRUE(std::isfinite(want.at(0, j))) << "A = 0 masks B's NaN/Inf";
        ASSERT_FALSE(std::isfinite(want.at(5, j))) << "A = 1 meets them";
        ASSERT_TRUE(std::isnan(want.at(7, j))) << "NaN in A propagates";
      }
    }
    expect_gemm_matches_oracle(a, b, random_matrix(m, n, rng), "masking");
  }
}

// Signed zeros under the same rule, with B finite: a -0 start (beta != 0)
// survives a zero term, also in a column of B that holds only zeros; so
// does a -0 that an underflowing fma leaves behind; an empty A block
// keeps its start. These are the cases where a chain without the skip
// would end at +0 instead.
TEST(Gemm, SignedZeroChainsPinned) {
  const std::size_t m = 48, k = 20;
  // An underflow anywhere in a block makes the kernel re-run every zero
  // result of that block, which would hide the -0 start case: one design
  // without and one with the underflowing row.
  for (const bool underflow : {false, true}) {
    for (const std::size_t n : {std::size_t{2}, std::size_t{40}}) {
      Rng rng(191 + n);
      Matrix a = random_matrix(m, k, rng);
      Matrix b = random_matrix(k, n, rng);
      for (std::size_t j = 0; j < n; ++j) b.at(4, j) = -0.0f;
      // The last column of B is all zeros of both signs (a dead unit).
      for (std::size_t p = 0; p < k; ++p) {
        b.at(p, n - 1) = p % 2 ? 0.0f : -0.0f;
      }
      for (std::size_t p = 0; p < k; ++p) {
        a.at(9, p) = p == 4 ? 1.0f : 0.0f;  // one term: 1 * -0
        a.at(10, p) = 0.0f;                  // no term at all
        // Rows 24..47 are empty but for one term in the last row, so a
        // whole register tile holds a single live row at its end.
        for (std::size_t i = 24; i < m; ++i) {
          a.at(i, p) = i + 1 == m && p == 7 ? 2.0f : 0.0f;
        }
      }
      if (underflow) {
        for (std::size_t j = 0; j + 1 < n; ++j) b.at(0, j) = -1e-30f;
        for (std::size_t p = 0; p < k; ++p) {
          a.at(11, p) = p == 0 ? 1e-30f : 0.0f;  // one term, underflows
        }
      }
      const Matrix neg_zero(m, n, -0.0f);
      for (const SimdTarget target :
           {SimdTarget::kScalar, SimdTarget::kAvx2, SimdTarget::kAvx512}) {
        if (!simd_target_available(target)) continue;
        ChainOptions acc;
        acc.beta = 1.0f;
        acc.c0 = &neg_zero;
        const Matrix want_acc = one_chain_gemm(a, b, target, acc);
        const Matrix want = one_chain_gemm(a, b, target);
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_TRUE(std::signbit(want_acc.at(9, j))) << "-0 + 1 * -0";
          ASSERT_TRUE(std::signbit(want_acc.at(10, j))) << "-0, no terms";
          if (underflow && target != SimdTarget::kScalar && j + 1 < n) {
            ASSERT_TRUE(std::signbit(want.at(11, j))) << "fma underflows";
          }
        }
      }
      expect_gemm_matches_oracle(a, b, neg_zero,
                                 underflow ? "underflow" : "signed zeros");
    }
  }
}

TEST(Gemm, InnerDimensionMismatchThrows) {
  Matrix a(2, 3), b(4, 2), out;
  EXPECT_THROW(gemm(a, b, out, false, false), std::invalid_argument);
}

TEST(Coo, AppendGrowsShape) {
  CooMatrix coo;
  coo.add(2, 5, 1.0f);
  EXPECT_EQ(coo.rows, 3u);
  EXPECT_EQ(coo.cols, 6u);
  EXPECT_EQ(coo.nnz(), 1u);
}

TEST(Coo, SparsityReported) {
  CooMatrix coo(100, 100);
  for (std::uint32_t i = 0; i < 100; ++i) coo.add(i, i, 1.0f);
  EXPECT_DOUBLE_EQ(coo.sparsity(), 0.99);
}

TEST(Csr, FromCooBasic) {
  CooMatrix coo(3, 3);
  coo.add(0, 1, 2.0f);
  coo.add(2, 0, 3.0f);
  coo.add(1, 1, -1.0f);
  const CsrMatrix csr = CsrMatrix::from_coo(coo);
  EXPECT_EQ(csr.nnz(), 3u);
  EXPECT_EQ(csr.row_ptr()[1] - csr.row_ptr()[0], 1u);
  EXPECT_EQ(csr.col_index()[csr.row_ptr()[2]], 0u);
}

TEST(Csr, DuplicatesSummed) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0f);
  coo.add(0, 0, 2.5f);
  coo.add(1, 1, 1.0f);
  const CsrMatrix csr = CsrMatrix::from_coo(coo);
  EXPECT_EQ(csr.nnz(), 2u);
  EXPECT_FLOAT_EQ(csr.values()[0], 3.5f);
}

TEST(Csr, FromCooRejects32BitIndexOverflow) {
  // A declared shape past the 32-bit index range must fail up front with
  // a typed resource error — before any O(rows) allocation happens —
  // instead of silently wrapping the index arithmetic.
  CooMatrix wide_rows;
  wide_rows.rows = std::size_t{1} << 32;
  wide_rows.cols = 4;
  try {
    CsrMatrix::from_coo(wide_rows);
    FAIL() << "expected Error{kResource}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kResource);
  }
  CooMatrix wide_cols;
  wide_cols.rows = 4;
  wide_cols.cols = (std::size_t{1} << 32) + 7;
  try {
    CsrMatrix::from_coo(wide_cols);
    FAIL() << "expected Error{kResource}";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kResource);
  }
}

TEST(Csr, FromPartsPreservesRowOrderAndValidates) {
  // from_parts keeps each row's nonzero order exactly as given (the
  // sharded engine's bitwise-identity contract); from_coo would reorder
  // by first occurrence and merge duplicates.
  const CsrMatrix csr = CsrMatrix::from_parts(
      2, 3, {0, 2, 3}, {2, 0, 1}, {5.0f, 1.0f, -2.0f});
  EXPECT_EQ(csr.rows(), 2u);
  EXPECT_EQ(csr.cols(), 3u);
  EXPECT_EQ(csr.nnz(), 3u);
  EXPECT_EQ(csr.col_index()[0], 2u);  // descending within the row, kept
  EXPECT_EQ(csr.col_index()[1], 0u);
  EXPECT_FLOAT_EQ(csr.values()[0], 5.0f);
  // Inconsistent arrays are an internal error, not undefined behavior.
  const auto expect_internal = [](const std::function<void()>& fn) {
    try {
      fn();
      FAIL() << "expected Error{kInternal}";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInternal);
    }
  };
  expect_internal([] {  // row_ptr not monotone
    CsrMatrix::from_parts(2, 3, {0, 2, 1}, {0, 1}, {1.0f, 1.0f});
  });
  expect_internal([] {  // column out of range
    CsrMatrix::from_parts(1, 2, {0, 1}, {2}, {1.0f});
  });
  expect_internal([] {  // col/value length mismatch
    CsrMatrix::from_parts(1, 2, {0, 1}, {0, 1}, {1.0f});
  });
}

TEST(Csr, SpmmMatchesDense) {
  Rng rng(11);
  CooMatrix coo(6, 5);
  Matrix dense_a(6, 5);
  for (int k = 0; k < 12; ++k) {
    const auto r = static_cast<std::uint32_t>(rng.below(6));
    const auto c = static_cast<std::uint32_t>(rng.below(5));
    const float v = static_cast<float>(rng.uniform(-1.0, 1.0));
    coo.add(r, c, v);
    dense_a.at(r, c) += v;  // duplicates accumulate in both forms
  }
  const Matrix x = random_matrix(5, 4, rng);
  Matrix got;
  CsrMatrix::from_coo(coo).spmm(x, got);
  expect_near(got, naive_gemm(dense_a, x, false, false, 1.0f));
}

TEST(Csr, SpmmAlphaBeta) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0f);
  coo.add(1, 1, 1.0f);
  const CsrMatrix identity = CsrMatrix::from_coo(coo);
  Matrix x(2, 2, 1.0f);
  Matrix out(2, 2, 10.0f);
  identity.spmm(x, out, 2.0f, 1.0f);  // out = 2*I*x + out
  EXPECT_FLOAT_EQ(out.at(0, 0), 12.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 12.0f);
}

TEST(Csr, SpmmDimensionMismatchThrows) {
  CooMatrix coo(2, 3);
  coo.add(0, 0, 1.0f);
  const CsrMatrix csr = CsrMatrix::from_coo(coo);
  Matrix x(2, 2);  // needs 3 rows
  Matrix out;
  EXPECT_THROW(csr.spmm(x, out), std::invalid_argument);
}

TEST(Csr, SpmmBetaZeroReshapesOutputLikeGemm) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0f);
  coo.add(1, 1, 1.0f);
  const CsrMatrix identity = CsrMatrix::from_coo(coo);
  Matrix x(2, 3, 1.0f);
  // beta == 0 reshapes any output to the result shape, reusing its
  // allocation — same contract as gemm, so a workspace buffer can carry
  // across layers of different width.
  Matrix wrong(4, 7, 0.0f);
  const std::size_t cap = wrong.capacity();
  identity.spmm(x, wrong);
  EXPECT_EQ(wrong.rows(), 2u);
  EXPECT_EQ(wrong.cols(), 3u);
  EXPECT_EQ(wrong.capacity(), cap);  // shrink reuses the allocation
  expect_near(wrong, x);
  // A correctly-shaped output is reused: stale contents are overwritten.
  Matrix reused(2, 3, 99.0f);
  identity.spmm(x, reused);
  expect_near(reused, x);
  // An empty output is allocated to the result shape.
  Matrix fresh;
  identity.spmm(x, fresh);
  expect_near(fresh, x);
  // beta != 0 still validates: the output's existing values are inputs.
  Matrix accum(4, 7, 0.0f);
  EXPECT_THROW(identity.spmm(x, accum, 1.0f, 0.5f), std::invalid_argument);
}

/// Builds a pseudo-random sparse matrix with ~nnz entries.
CsrMatrix random_csr(std::size_t rows, std::size_t cols, std::size_t nnz,
                     Rng& rng) {
  CooMatrix coo(rows, cols);
  for (std::size_t k = 0; k < nnz; ++k) {
    coo.add(static_cast<std::uint32_t>(rng.below(rows)),
            static_cast<std::uint32_t>(rng.below(cols)),
            static_cast<float>(rng.uniform(-1.0, 1.0)));
  }
  return CsrMatrix::from_coo(coo);
}

TEST(Coo, AddCheckedRejectsOutOfRangeWithoutGrowing) {
  CooMatrix coo(3, 3);
  coo.add_checked(2, 2, 1.0f);  // in range: appended normally
  EXPECT_EQ(coo.nnz(), 1u);
  EXPECT_THROW(coo.add_checked(3, 0, 1.0f), std::out_of_range);
  EXPECT_THROW(coo.add_checked(0, 3, 1.0f), std::out_of_range);
  // The failed appends must not have grown the shape or the storage
  // (plain add() would have silently stretched the matrix to 4 rows).
  EXPECT_EQ(coo.rows, 3u);
  EXPECT_EQ(coo.cols, 3u);
  EXPECT_EQ(coo.nnz(), 1u);
}

TEST(Coo, ReshapeGrowsButNeverShrinks) {
  CooMatrix coo(2, 3);
  coo.add(1, 2, 1.0f);
  coo.reshape(5, 4);
  EXPECT_EQ(coo.rows, 5u);
  EXPECT_EQ(coo.cols, 4u);
  coo.add_checked(4, 3, 1.0f);  // now in range
  EXPECT_THROW(coo.reshape(3, 4), std::invalid_argument);
  EXPECT_THROW(coo.reshape(5, 2), std::invalid_argument);
  coo.reshape(5, 4);  // same shape is a no-op, not a shrink
  EXPECT_EQ(coo.nnz(), 2u);
}

TEST(Csr, SpmmBitwiseIdenticalAcrossTileWidths) {
  Rng rng(41);
  const CsrMatrix csr = random_csr(400, 300, 3000, rng);
  const Matrix x = random_matrix(300, 13, rng);  // odd width: ragged tail
  Matrix untiled;
  csr.spmm(x, untiled);  // default: one tile
  for (const std::size_t tile : {std::size_t{1}, std::size_t{4},
                                 std::size_t{13}, std::size_t{64}}) {
    set_spmm_tile_cols(tile);
    Matrix tiled;
    csr.spmm(x, tiled);
    set_spmm_tile_cols(0);
    EXPECT_EQ(untiled, tiled) << "tile=" << tile;  // bitwise
  }
  // Tiling composed with threading is still bitwise invariant.
  set_spmm_tile_cols(4);
  set_kernel_threads(8);
  Matrix tiled_parallel;
  csr.spmm(x, tiled_parallel);
  set_kernel_threads(0);
  set_spmm_tile_cols(0);
  EXPECT_EQ(untiled, tiled_parallel);
}

TEST(Csr, SpmmRowsMatchesFullSpmmRows) {
  Rng rng(43);
  const CsrMatrix csr = random_csr(500, 200, 4000, rng);
  const Matrix x = random_matrix(200, 9, rng);
  Matrix full;
  csr.spmm(x, full);
  const std::vector<std::uint32_t> subset = {0, 7, 7, 123, 250, 499};
  Matrix compact;
  csr.spmm_rows(subset, x, compact);
  ASSERT_EQ(compact.rows(), subset.size());
  ASSERT_EQ(compact.cols(), full.cols());
  for (std::size_t i = 0; i < subset.size(); ++i) {
    for (std::size_t j = 0; j < full.cols(); ++j) {
      // Bitwise: the compact row must reproduce the whole-graph row.
      EXPECT_EQ(compact.at(i, j), full.at(subset[i], j))
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(Csr, SpmmRowsValidatesInputs) {
  Rng rng(47);
  const CsrMatrix csr = random_csr(10, 6, 20, rng);
  const Matrix x = random_matrix(6, 3, rng);
  Matrix out;
  EXPECT_THROW(csr.spmm_rows({10}, x, out), std::out_of_range);
  const Matrix wrong = random_matrix(5, 3, rng);
  EXPECT_THROW(csr.spmm_rows({0}, wrong, out), std::invalid_argument);
}

TEST(Csr, SpmmBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(31);
  const CsrMatrix csr = random_csr(700, 500, 4000, rng);
  const Matrix x = random_matrix(500, 8, rng);
  set_kernel_threads(1);
  Matrix serial;
  csr.spmm(x, serial);
  set_kernel_threads(8);
  Matrix parallel;
  csr.spmm(x, parallel);
  set_kernel_threads(0);
  EXPECT_EQ(serial, parallel);  // bitwise, not approximate
}

TEST(Matrix, GemmBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(37);
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      const Matrix a = ta ? random_matrix(90, 130, rng)
                          : random_matrix(130, 90, rng);
      const Matrix b = tb ? random_matrix(110, 90, rng)
                          : random_matrix(90, 110, rng);
      set_kernel_threads(1);
      Matrix serial;
      gemm(a, b, serial, ta, tb);
      set_kernel_threads(8);
      Matrix parallel;
      gemm(a, b, parallel, ta, tb);
      set_kernel_threads(0);
      EXPECT_EQ(serial, parallel) << "ta=" << ta << " tb=" << tb;
    }
  }
}

TEST(Csr, TransposeRoundTrip) {
  Rng rng(13);
  CooMatrix coo(7, 4);
  for (int k = 0; k < 10; ++k) {
    coo.add(static_cast<std::uint32_t>(rng.below(7)),
            static_cast<std::uint32_t>(rng.below(4)),
            static_cast<float>(rng.uniform(-1.0, 1.0)));
  }
  const CsrMatrix csr = CsrMatrix::from_coo(coo);
  const CsrMatrix tt = csr.transpose().transpose();
  ASSERT_EQ(tt.rows(), csr.rows());
  ASSERT_EQ(tt.nnz(), csr.nnz());
  // Compare as dense.
  Matrix eye(4, 4);
  for (std::size_t i = 0; i < 4; ++i) eye.at(i, i) = 1.0f;
  Matrix a, b;
  csr.spmm(eye, a);
  tt.spmm(eye, b);
  expect_near(a, b);
}

TEST(Csr, TransposeMatchesManual) {
  CooMatrix coo(2, 3);
  coo.add(0, 2, 5.0f);
  coo.add(1, 0, 7.0f);
  const CsrMatrix t = CsrMatrix::from_coo(coo).transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  Matrix x(2, 1);
  x.at(0, 0) = 1.0f;
  x.at(1, 0) = 1.0f;
  Matrix out;
  t.spmm(x, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 7.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(2, 0), 5.0f);
}

}  // namespace
}  // namespace gcnt
