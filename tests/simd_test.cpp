// SIMD backend contract: runtime dispatch overrides, the unified GEMM
// accumulation policy, per-target bitwise determinism across thread
// counts and SpMM tile widths, cross-target tolerance, and the fused
// GEMM bias/ReLU epilogue (see src/tensor/simd/simd.h and docs/API.md).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "gemm_reference.h"
#include "tensor/matrix.h"
#include "tensor/simd/simd.h"
#include "tensor/sparse.h"

namespace gcnt {
namespace {

/// Restores process-wide kernel knobs after every test.
class SimdTest : public ::testing::Test {
 protected:
  void TearDown() override {
    reset_simd_target();
    set_kernel_threads(0);
    set_spmm_tile_cols(0);
  }
};

Matrix random_dense(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    m.data()[i] = static_cast<float>(rng.normal());
  }
  return m;
}

/// Strictly positive entries: no zero-skip shortcuts, no -0.0 edge cases,
/// so bitwise comparisons isolate pure accumulation-order effects.
Matrix random_positive(std::size_t rows, std::size_t cols,
                       std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    m.data()[i] = 0.25f + static_cast<float>(rng.uniform());
  }
  return m;
}

Matrix transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) t.at(c, r) = m.at(r, c);
  }
  return t;
}

/// Random sparse matrix with ~nnz entries (duplicates merge in from_coo).
CsrMatrix random_csr(std::size_t rows, std::size_t cols, std::size_t nnz,
                     std::uint64_t seed) {
  CooMatrix coo(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < nnz; ++i) {
    const auto r = static_cast<std::uint32_t>(rng.uniform(0.0, rows));
    const auto c = static_cast<std::uint32_t>(rng.uniform(0.0, cols));
    coo.add(r, c, static_cast<float>(rng.normal()));
  }
  return CsrMatrix::from_coo(coo);
}

void expect_close(const Matrix& a, const Matrix& b, float tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows() * a.cols(); ++i) {
    const float x = a.data()[i];
    const float y = b.data()[i];
    ASSERT_NEAR(x, y, tol * (1.0f + std::max(std::fabs(x), std::fabs(y))))
        << "element " << i;
  }
}

/// Runs `fn` once per available dispatch target, appending one result per
/// target to `results` (scalar always first). Leaves the override reset.
template <typename Fn>
void run_per_target(Fn&& fn, std::vector<Matrix>& results) {
  ASSERT_TRUE(set_simd_target(SimdTarget::kScalar)) << "scalar always runs";
  results.push_back(fn());
  for (const SimdTarget target : {SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (simd_target_available(target)) {
      ASSERT_TRUE(set_simd_target(target));
      results.push_back(fn());
    }
  }
  reset_simd_target();
}

TEST_F(SimdTest, DispatchOverrideAndIntrospection) {
  // Gauge writes are dropped while collection is off; the dispatcher
  // publishes "simd.target" on every (re)resolution, so enable stats
  // before switching targets.
  const bool stats_were_enabled = stats_enabled();
  set_stats_enabled(true);
  ASSERT_TRUE(simd_target_available(SimdTarget::kScalar));
  ASSERT_TRUE(set_simd_target(SimdTarget::kScalar));
  EXPECT_EQ(simd_target(), SimdTarget::kScalar);
  EXPECT_STREQ(simd_target_name(), "scalar");
  EXPECT_STREQ(simd_ops().name, "scalar");
  EXPECT_EQ(StatsRegistry::instance().gauge("simd.target").value(), 0);

  if (simd_target_available(SimdTarget::kAvx2)) {
    ASSERT_TRUE(set_simd_target(SimdTarget::kAvx2));
    EXPECT_EQ(simd_target(), SimdTarget::kAvx2);
    EXPECT_STREQ(simd_target_name(), "avx2");
    EXPECT_EQ(StatsRegistry::instance().gauge("simd.target").value(), 1);
  } else {
    EXPECT_FALSE(set_simd_target(SimdTarget::kAvx2));
    EXPECT_EQ(simd_target(), SimdTarget::kScalar) << "failed set is a no-op";
  }

  reset_simd_target();
  // After reset the resolved target must be one this host can execute.
  EXPECT_TRUE(simd_target_available(simd_target()));
  set_stats_enabled(stats_were_enabled);
}

TEST_F(SimdTest, EnvOverrideRespectedAfterReset) {
  ASSERT_EQ(setenv("GCNT_SIMD", "scalar", 1), 0);
  reset_simd_target();
  EXPECT_EQ(simd_target(), SimdTarget::kScalar);
  EXPECT_STREQ(simd_target_name(), "scalar");
  ASSERT_EQ(unsetenv("GCNT_SIMD"), 0);
  reset_simd_target();
  EXPECT_TRUE(simd_target_available(simd_target()));
}

// The unified accumulation policy (matrix.h): all four transpose variants
// accumulate in fp32 ascending-p order. With alpha == 1 and strictly
// positive operands every variant performs the identical sequence of
// float operations per output element on the scalar target.
TEST_F(SimdTest, GemmTransposeVariantsAgreeBitwiseOnScalar) {
  ASSERT_TRUE(set_simd_target(SimdTarget::kScalar));
  const std::size_t m = 70, k = 50, n = 90;
  const Matrix a = random_positive(m, k, 11);
  const Matrix b = random_positive(k, n, 22);
  const Matrix at = transpose(a);
  const Matrix bt = transpose(b);

  Matrix nn, tn, nt, tt;
  gemm(a, b, nn, false, false);
  gemm(at, b, tn, true, false);
  gemm(a, bt, nt, false, true);
  gemm(at, bt, tt, true, true);

  EXPECT_EQ(nn, tn);
  EXPECT_EQ(nn, nt);
  EXPECT_EQ(nn, tt);
}

// On AVX2 all four variants run the same one chain per element (op(A)
// is read through strides, a transposed B is packed), so they agree
// bitwise there too; scalar vs AVX2 differ by FMA contraction only.
TEST_F(SimdTest, GemmTransposeVariantsAgreeAcrossTargets) {
  const std::size_t m = 70, k = 50, n = 90;
  const Matrix a = random_positive(m, k, 33);
  const Matrix b = random_positive(k, n, 44);
  const Matrix at = transpose(a);
  const Matrix bt = transpose(b);

  if (simd_target_available(SimdTarget::kAvx2)) {
    ASSERT_TRUE(set_simd_target(SimdTarget::kAvx2));
    Matrix nn, tn, nt, tt;
    gemm(a, b, nn, false, false);
    gemm(at, b, tn, true, false);
    gemm(a, bt, nt, false, true);
    gemm(at, bt, tt, true, true);
    EXPECT_EQ(nn, tn);
    EXPECT_EQ(nn, nt);
    EXPECT_EQ(nn, tt);
  }

  // Scalar vs AVX2: FMA contraction only, stays within tight tolerance.
  std::vector<Matrix> across;
  run_per_target(
      [&] {
        Matrix out;
        gemm(a, b, out, false, false, 0.75f);
        return out;
      },
      across);
  for (std::size_t i = 1; i < across.size(); ++i) {
    expect_close(across[0], across[i], 1e-5f);
  }
}

// The GEMM kernel against the naive one-chain oracle (gemm_reference.h),
// bit for bit, on every target and at 1 and 8 threads: the paper's seven
// layer shapes plus tail shapes around every tile edge, in all four
// transpose variants, the beta = 1 accumulate (dW) and the fused
// epilogue. A is about half zeros (the skip, the zero-result re-run and
// the empty-row paths); k = 300 crosses run_gemm's depth blocks.
TEST_F(SimdTest, GemmKernelMatchesOneChainReference) {
  struct Shape {
    std::size_t m, k, n;
  };
  std::vector<Shape> shapes = {{1001, 4, 32},  {1001, 32, 64},
                               {1001, 64, 128}, {1001, 128, 64},
                               {1001, 64, 64},  {1001, 64, 128},
                               {1001, 128, 2}};
  for (const std::size_t m : {1, 7, 1001}) {
    for (const std::size_t n : {1, 2, 3, 17, 33, 130}) {
      for (const std::size_t k : {3, 300}) shapes.push_back({m, k, n});
    }
  }
  std::uint64_t seed = 300;
  for (const Shape& s : shapes) {
    Matrix a = random_dense(s.m, s.k, ++seed);
    for (std::size_t i = 0; i < a.size(); i += 2) a.data()[i] = 0.0f;
    for (std::size_t c = 0; c < s.k; ++c) a.at(0, c) = 0.0f;  // empty row
    const Matrix b = random_dense(s.k, s.n, ++seed);
    const Matrix c0 = random_dense(s.m, s.n, ++seed);
    const Matrix bias = random_dense(1, s.n, ++seed);
    const Matrix at = transpose(a);
    const Matrix bt = transpose(b);
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
      const Matrix want_linear = one_chain_gemm(a, b, target, fused);
      fused.relu = true;
      const Matrix want_relu = one_chain_gemm(a, b, target, fused);
      for (const int threads : {1, 8}) {
        set_kernel_threads(threads);
        const std::string where = std::string(simd_target_name()) + " m=" +
                                  std::to_string(s.m) + " k=" +
                                  std::to_string(s.k) + " n=" +
                                  std::to_string(s.n) + " threads=" +
                                  std::to_string(threads);
        Matrix nn, tn, nt, tt, tn_acc = c0, linear, relu;
        gemm(a, b, nn, false, false);
        gemm(at, b, tn, true, false);
        gemm(a, bt, nt, false, true);
        gemm(at, bt, tt, true, true);
        gemm(at, b, tn_acc, true, false, 1.0f, 1.0f);
        gemm_bias_act(a, b, bias, linear, /*relu=*/false);
        gemm_bias_act(a, b, bias, relu, /*relu=*/true);
        EXPECT_EQ(first_bit_difference(nn, want), -1) << "nn " << where;
        EXPECT_EQ(first_bit_difference(tn, want), -1) << "tn " << where;
        EXPECT_EQ(first_bit_difference(nt, want), -1) << "nt " << where;
        EXPECT_EQ(first_bit_difference(tt, want), -1) << "tt " << where;
        EXPECT_EQ(first_bit_difference(tn_acc, want_acc), -1)
            << "tn beta=1 " << where;
        EXPECT_EQ(first_bit_difference(linear, want_linear), -1)
            << "bias " << where;
        EXPECT_EQ(first_bit_difference(relu, want_relu), -1)
            << "bias+relu " << where;
      }
      set_kernel_threads(0);
    }
  }
}

// For a fixed target, GEMM must be bitwise identical across thread
// counts (deterministic static row partitioning, per-row order intact).
TEST_F(SimdTest, GemmBitwiseInvariantAcrossThreadsPerTarget) {
  const Matrix a = random_dense(300, 96, 55);
  const Matrix b = random_dense(96, 160, 66);
  for (const SimdTarget target :
       {SimdTarget::kScalar, SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (!simd_target_available(target)) continue;
    ASSERT_TRUE(set_simd_target(target));
    Matrix single, eight;
    set_kernel_threads(1);
    gemm(a, b, single, false, false);
    set_kernel_threads(8);
    gemm(a, b, eight, false, false);
    set_kernel_threads(0);
    EXPECT_EQ(single, eight) << "target " << simd_target_name();
  }
}

// SpMM and spmm_rows: bitwise identical per target across thread counts
// AND tile widths; within tolerance across targets.
TEST_F(SimdTest, SpmmBitwiseInvariantAcrossThreadsAndTilesPerTarget) {
  const CsrMatrix csr = random_csr(400, 300, 4000, 77);
  const Matrix dense = random_dense(300, 96, 88);
  std::vector<std::uint32_t> row_ids;
  for (std::uint32_t r = 3; r < 400; r += 7) row_ids.push_back(r);

  std::vector<Matrix> per_target_full;
  std::vector<Matrix> per_target_rows;
  for (const SimdTarget target :
       {SimdTarget::kScalar, SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (!simd_target_available(target)) continue;
    ASSERT_TRUE(set_simd_target(target));

    Matrix reference;
    set_spmm_tile_cols(0);
    set_kernel_threads(1);
    csr.spmm(dense, reference);
    Matrix rows_reference;
    csr.spmm_rows(row_ids, dense, rows_reference);

    for (const std::size_t tile : {std::size_t{8}, std::size_t{16},
                                   std::size_t{64}}) {
      for (const int threads : {1, 8}) {
        set_spmm_tile_cols(tile);
        set_kernel_threads(threads);
        Matrix out;
        csr.spmm(dense, out);
        EXPECT_EQ(reference, out) << simd_target_name() << " tile " << tile
                                  << " threads " << threads;
        Matrix rows_out;
        csr.spmm_rows(row_ids, dense, rows_out);
        EXPECT_EQ(rows_reference, rows_out)
            << simd_target_name() << " tile " << tile << " threads "
            << threads;
      }
    }
    set_spmm_tile_cols(0);
    set_kernel_threads(0);

    // Each compact spmm_rows row reproduces the full spmm row bit-for-bit.
    for (std::size_t i = 0; i < row_ids.size(); ++i) {
      for (std::size_t c = 0; c < reference.cols(); ++c) {
        ASSERT_EQ(reference.at(row_ids[i], c), rows_reference.at(i, c));
      }
    }
    per_target_full.push_back(std::move(reference));
    per_target_rows.push_back(std::move(rows_reference));
  }
  for (std::size_t i = 1; i < per_target_full.size(); ++i) {
    expect_close(per_target_full[0], per_target_full[i], 1e-5f);
    expect_close(per_target_rows[0], per_target_rows[i], 1e-5f);
  }
}

// gemm_bias_act must be bitwise identical to the unfused pipeline
// (gemm, then bias broadcast, then optional ReLU) on every target.
TEST_F(SimdTest, GemmBiasActMatchesUnfusedBitwise) {
  const Matrix a = random_dense(150, 64, 99);
  const Matrix b = random_dense(64, 80, 111);
  const Matrix bias = random_dense(1, 80, 122);

  for (const SimdTarget target :
       {SimdTarget::kScalar, SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (!simd_target_available(target)) continue;
    ASSERT_TRUE(set_simd_target(target));

    Matrix reference;
    gemm(a, b, reference, false, false);
    for (std::size_t r = 0; r < reference.rows(); ++r) {
      for (std::size_t c = 0; c < reference.cols(); ++c) {
        reference.at(r, c) += bias.at(0, c);
      }
    }
    Matrix fused_linear;
    gemm_bias_act(a, b, bias, fused_linear, /*relu=*/false);
    EXPECT_EQ(reference, fused_linear) << simd_target_name();

    for (std::size_t i = 0; i < reference.rows() * reference.cols(); ++i) {
      float& v = reference.data()[i];
      v = v > 0.0f ? v : 0.0f;
    }
    Matrix fused_relu;
    gemm_bias_act(a, b, bias, fused_relu, /*relu=*/true);
    EXPECT_EQ(reference, fused_relu) << simd_target_name();
  }
}

// Elementwise ops route through the dispatch table; axpy/scale/relu must
// be bitwise identical to their naive loops per target (lanes map 1:1).
TEST_F(SimdTest, ElementwiseOpsMatchNaiveLoops) {
  const std::size_t n = 1013;  // odd size exercises every tail path
  const Matrix x = random_dense(1, n, 166);
  for (const SimdTarget target :
       {SimdTarget::kScalar, SimdTarget::kAvx2, SimdTarget::kAvx512}) {
    if (!simd_target_available(target)) continue;
    ASSERT_TRUE(set_simd_target(target));
    const SimdOps& ops = simd_ops();

    Matrix y = random_dense(1, n, 177);
    Matrix expected = y;
    ops.axpy(y.data(), x.data(), 0.5f, n);
    if (target == SimdTarget::kScalar) {
      for (std::size_t i = 0; i < n; ++i) {
        expected.data()[i] += 0.5f * x.data()[i];
      }
      EXPECT_EQ(expected, y);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        expected.data()[i] = std::fmaf(0.5f, x.data()[i], expected.data()[i]);
      }
      EXPECT_EQ(expected, y) << "AVX2 axpy is one fmaf per element";
    }

    Matrix z = random_dense(1, n, 188);
    Matrix z_expected = z;
    ops.relu(z.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      float& v = z_expected.data()[i];
      v = v > 0.0f ? v : 0.0f;  // canonicalizes -0.0 like _mm256_max_ps
    }
    EXPECT_EQ(z_expected, z);

    Matrix s = random_dense(1, n, 199);
    Matrix s_expected = s;
    ops.scale(s.data(), -1.25f, n);
    for (std::size_t i = 0; i < n; ++i) s_expected.data()[i] *= -1.25f;
    EXPECT_EQ(s_expected, s);
  }
}

// Lengths around the lane boundaries of the widest target (16 fp32 lanes
// on AVX-512) and its multiples. 0, 1, lane-1, lane, lane+1 plus a
// non-multiple beyond one full vector exercise the masked tail, the
// pure-mask (sub-lane) case, and the body+tail combination.
const std::size_t kTailLengths[] = {0,  1,  15, 16, 17, 31, 32,
                                    33, 63, 64, 65, 100};

// AVX-512 fp32 contract: bitwise identical to AVX2 (same FMA contraction),
// with the masked tails never diverging from the vector body. Pin every
// elementwise fp32 table entry at every tail length (the GEMM tile is
// pinned by GemmKernelMatchesOneChainReference).
TEST_F(SimdTest, Avx512Fp32MatchesAvx2BitwiseAtMaskedTailLengths) {
  if (!simd_target_available(SimdTarget::kAvx512) ||
      !simd_target_available(SimdTarget::kAvx2)) {
    GTEST_SKIP() << "host lacks avx512 or avx2";
  }
  const std::size_t max_n = 128;
  const Matrix x = random_dense(1, max_n, 211);
  const Matrix base = random_dense(1, max_n, 222);

  for (const std::size_t n : kTailLengths) {
    Matrix y2 = base, y5 = base, b2 = base, b5 = base, r2 = base, r5 = base,
           s2 = base, s5 = base, br2 = base, br5 = base;
    ASSERT_TRUE(set_simd_target(SimdTarget::kAvx2));
    simd_ops().axpy(y2.data(), x.data(), 0.75f, n);
    simd_ops().bias_add(b2.data(), x.data(), n);
    simd_ops().bias_relu(br2.data(), x.data(), n);
    simd_ops().relu(r2.data(), n);
    simd_ops().scale(s2.data(), -1.25f, n);

    ASSERT_TRUE(set_simd_target(SimdTarget::kAvx512));
    simd_ops().axpy(y5.data(), x.data(), 0.75f, n);
    simd_ops().bias_add(b5.data(), x.data(), n);
    simd_ops().bias_relu(br5.data(), x.data(), n);
    simd_ops().relu(r5.data(), n);
    simd_ops().scale(s5.data(), -1.25f, n);

    EXPECT_EQ(y2, y5) << "axpy n=" << n;
    EXPECT_EQ(b2, b5) << "bias_add n=" << n;
    EXPECT_EQ(br2, br5) << "bias_relu n=" << n;
    EXPECT_EQ(r2, r5) << "relu n=" << n;
    EXPECT_EQ(s2, s5) << "scale n=" << n;
  }
}

#if defined(GCNT_DEBUG_ASSERTS)
// Debug builds: out-of-range Matrix access trips GCNT_DEBUG_ASSERT and
// aborts with a diagnostic. Compiled out entirely in Release.
TEST(SimdDebugAssertDeathTest, MatrixAtOutOfRangeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Matrix m(2, 3);
  EXPECT_DEATH((void)m.at(2, 0), "GCNT_DEBUG_ASSERT failed");
  EXPECT_DEATH((void)m.at(0, 3), "GCNT_DEBUG_ASSERT failed");
  EXPECT_DEATH((void)m.row(2), "GCNT_DEBUG_ASSERT failed");
}
#else
// Release builds compile the assertion away: out-of-contract reads are
// not checked (this test just pins that the macro expands to a no-op).
TEST(SimdDebugAssertDeathTest, ReleaseBuildCompilesAssertsOut) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
}
#endif

}  // namespace
}  // namespace gcnt
