// AVX2 + FMA microkernels. This translation unit is the only one
// compiled with -mavx2 -mfma (see src/tensor/CMakeLists.txt); nothing
// here runs unless the dispatcher verified CPUID support, so the rest of
// the binary stays executable on baseline x86-64 (and other ISAs compile
// the stub at the bottom).
//
// Lane discipline: every fp32 op (axpy, the GEMM tile, bias epilogues,
// relu, scale) maps vector lanes one-to-one onto output elements — lane
// i only ever reads/writes element i — so they are bitwise deterministic
// for any thread count or tile width, and differ from the scalar target
// only by FMA's single rounding.

#include "tensor/simd/simd.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "tensor/simd/gemm_chain.h"

namespace gcnt {
// Scalar tails use std::fmaf so an element gets the same single-rounded
// contraction whether a tile/loop boundary lands it in a vector lane or
// in the tail — this is what keeps SpMM bitwise identical across column
// tile widths on this target.
namespace {

void avx2_axpy(float* y, const float* x, float a, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 y0 = _mm256_loadu_ps(y + i);
    const __m256 y1 = _mm256_loadu_ps(y + i + 8);
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), y0));
    _mm256_storeu_ps(y + i + 8,
                     _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i + 8), y1));
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 y0 = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), y0));
  }
  for (; i < n; ++i) y[i] = std::fmaf(a, x[i], y[i]);
}

// ---- fp32 GEMM tile --------------------------------------------------
// An MR x 16 register tile: per p, two B vectors and MR broadcast A
// values feed 2 * MR independent FMA chains — one per output vector,
// ascending p, no `av == 0` skip. A row whose result holds a zero or NaN
// re-runs the per-term chain (gemm_chain.h shows that everything else is
// already exact). Panels narrower than 16 use masked loads and stores.

constexpr std::size_t kGemmRows = 6;
constexpr std::size_t kGemmCols = 16;

float fma_op(float a, float b, float c) { return std::fmaf(a, b, c); }

/// All-ones in the first min(n, 8) lanes.
inline __m256i lane_mask(std::size_t n) {
  const int live = n >= 8 ? 8 : static_cast<int>(n);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(live),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

template <bool kMasked>
inline __m256 load(const float* p, __m256i mask) {
  return kMasked ? _mm256_maskload_ps(p, mask) : _mm256_loadu_ps(p);
}

/// Lane bits of a tile vector's zero or NaN result.
inline int zero_or_nan_lanes(__m256 acc, __m256i mask) {
  return _mm256_movemask_ps(
      _mm256_and_ps(_mm256_cmp_ps(acc, _mm256_setzero_ps(), _CMP_EQ_UQ),
                    _mm256_castsi256_ps(mask)));
}

/// Lane bits of a tile vector's NaN result.
inline int nan_lanes(__m256 acc) {
  return _mm256_movemask_ps(_mm256_cmp_ps(acc, acc, _CMP_UNORD_Q));
}

/// Of a tile vector's zero-or-NaN lanes, those whose row must re-run the
/// per-term chain: NaN, and zeros whose chain did not start at exactly +0
/// or whose block saw an underflow (gemm_chain.h, steps 3 and 4).
int rerun_lanes(const GemmBlock& g, const float* c, __m256i mask,
                int zero_or_nan, int nan, bool tiny) {
  if (zero_or_nan == 0 || tiny) return zero_or_nan;
  int plus_zero_start = _mm256_movemask_ps(_mm256_castsi256_ps(mask));
  if (g.beta != 0.0f) {
    const __m256 init =
        _mm256_mul_ps(_mm256_set1_ps(g.beta), _mm256_maskload_ps(c, mask));
    plus_zero_start = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_and_si256(
        _mm256_cmpeq_epi32(_mm256_castps_si256(init), _mm256_setzero_si256()),
        mask)));
  }
  return (nan & zero_or_nan) | (zero_or_nan & ~plus_zero_start);
}

template <int R, int V, bool kMasked>
void gemm_tile(const GemmBlock& g, std::size_t k, std::size_t i0,
               std::size_t j0, std::size_t nj) {
  __m256i mask[V];
  for (int v = 0; v < V; ++v) mask[v] = lane_mask(nj - 8 * v);
  const __m256 zero = _mm256_setzero_ps();
  float* c = g.c + i0 * g.ldc + j0;
  __m256 acc[R][V];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      acc[r][v] =
          g.beta == 0.0f
              ? zero
              : _mm256_mul_ps(_mm256_set1_ps(g.beta),
                              load<kMasked>(c + r * g.ldc + 8 * v, mask[v]));
    }
  }
  // Locals, not g's fields: the loop then keeps every accumulator in a
  // register instead of reloading the bounds each step.
  const std::size_t a_row = g.a_row;
  const std::size_t a_col = g.a_col;
  const std::size_t ldb = g.ldb;
  const float* a = g.a + i0 * a_row;
  const float* b = g.b + j0;
  for (std::size_t p = 0; p < k; ++p) {
    __m256 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) bv[v] = load<kMasked>(b + 8 * v, mask[v]);
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * a_row);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
    a += a_col;
    b += ldb;
  }
  // Zero and NaN lanes are the only ones that may differ from the
  // per-term chain; see rerun_lanes() for which of them re-run their row.
  int zero_or_nan[R][V];
  int nan[R][V];
  unsigned rerun = 0;
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      zero_or_nan[r][v] = k == 0 ? 0 : zero_or_nan_lanes(acc[r][v], mask[v]);
      nan[r][v] = nan_lanes(acc[r][v]);
      if (zero_or_nan[r][v] != 0) rerun |= 1u << r;
    }
  }
  if (rerun != 0) {
    const bool tiny = simd_detail::underflowed();
    for (int r = 0; r < R; ++r) {
      int left = 0;
      for (int v = 0; v < V; ++v) {
        left |= rerun_lanes(g, c + r * g.ldc + 8 * v, mask[v],
                            zero_or_nan[r][v], nan[r][v], tiny);
      }
      if (left == 0) rerun &= ~(1u << r);
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
    if ((rerun >> r & 1u) != 0) {
      simd_detail::gemm_chain_rows(g, i0 + r, i0 + r + 1, j0, j0 + nj,
                                   fma_op);
      continue;
    }
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      __m256 x = acc[r][v];
      if (g.bias != nullptr) {
        x = _mm256_add_ps(x, load<kMasked>(g.bias + j0 + 8 * v, mask[v]));
      }
      if (g.relu) x = _mm256_max_ps(x, zero);
      float* out = c + r * g.ldc + 8 * v;
      if (kMasked) {
        _mm256_maskstore_ps(out, mask[v], x);
      } else {
        _mm256_storeu_ps(out, x);
      }
    }
  }
}

template <int V, bool kMasked>
void gemm_tile_rows(std::size_t rows, const GemmBlock& g, std::size_t k,
                    std::size_t i0, std::size_t j0, std::size_t nj) {
  switch (rows) {
    case 6: return gemm_tile<6, V, kMasked>(g, k, i0, j0, nj);
    case 5: return gemm_tile<5, V, kMasked>(g, k, i0, j0, nj);
    case 4: return gemm_tile<4, V, kMasked>(g, k, i0, j0, nj);
    case 3: return gemm_tile<3, V, kMasked>(g, k, i0, j0, nj);
    case 2: return gemm_tile<2, V, kMasked>(g, k, i0, j0, nj);
    default: return gemm_tile<1, V, kMasked>(g, k, i0, j0, nj);
  }
}

// ---- narrow n: lanes over rows ----------------------------------------
// For n <= 2 (the 128 -> 2 classifier) a 16-wide panel would be mostly
// masked lanes. Here a vector holds 8 ROWS of one output column, one
// accumulator per column: per p, each vector of A(., p) meets a
// broadcast B(p, j) in one FMA — the same per-element chain. A(., p) is
// one load when A's rows are 1 apart (the dW layout); otherwise 8 x 8
// blocks of A are transposed in registers.

constexpr std::size_t kNarrowCols = 2;
constexpr std::size_t kNarrowRows = 24;

/// In place: lane j of r[i] becomes lane i of r[j].
inline void transpose8(__m256 (&r)[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

/// Rows [i0, i0 + rows) (rows <= 8 * RB) x all NJ == n columns.
template <int RB, int NJ>
void narrow_tile(const GemmBlock& g, std::size_t k, std::size_t i0,
                 std::size_t rows) {
  __m256i mask[RB];
#pragma GCC unroll 4
  for (int v = 0; v < RB; ++v) mask[v] = lane_mask(rows - 8 * v);
  const __m256 zero = _mm256_setzero_ps();
  alignas(32) float col[8];
  __m256 acc[RB][NJ];
#pragma GCC unroll 4
  for (int v = 0; v < RB; ++v) {
#pragma GCC unroll 2
    for (int j = 0; j < NJ; ++j) {
      acc[v][j] = zero;
      if (g.beta == 0.0f) continue;
      for (std::size_t r = 0; r < 8; ++r) {
        const std::size_t i = 8 * v + r;
        col[r] = i < rows ? g.c[(i0 + i) * g.ldc + j] : 0.0f;
      }
      acc[v][j] = _mm256_mul_ps(_mm256_set1_ps(g.beta), _mm256_load_ps(col));
    }
  }
  const std::size_t ldb = g.ldb;
  if (g.a_row == 1) {
    const std::size_t a_col = g.a_col;
    const float* a = g.a + i0;
    const float* b = g.b;
    for (std::size_t p = 0; p < k; ++p) {
      __m256 av[RB];
#pragma GCC unroll 4
      for (int v = 0; v < RB; ++v) {
        av[v] = _mm256_maskload_ps(a + 8 * v, mask[v]);
      }
#pragma GCC unroll 2
      for (int j = 0; j < NJ; ++j) {
        const __m256 bv = _mm256_broadcast_ss(b + j);
#pragma GCC unroll 4
        for (int v = 0; v < RB; ++v) {
          acc[v][j] = _mm256_fmadd_ps(av[v], bv, acc[v][j]);
        }
      }
      a += a_col;
      b += ldb;
    }
  } else {  // a_col == 1
    // All RB blocks first, then one pass over p: RB * NJ chains in flight.
    alignas(32) float block[RB][8][8];
    for (std::size_t p0 = 0; p0 < k; p0 += 8) {
      const std::size_t kk = std::min<std::size_t>(8, k - p0);
      const __m256i kmask = lane_mask(kk);
#pragma GCC unroll 4
      for (int v = 0; v < RB; ++v) {
        __m256 t[8];
#pragma GCC unroll 8
        for (std::size_t r = 0; r < 8; ++r) {
          const std::size_t i = 8 * v + r;
          t[r] = i < rows
                     ? _mm256_maskload_ps(g.a + (i0 + i) * g.a_row + p0, kmask)
                     : zero;
        }
        transpose8(t);
#pragma GCC unroll 8
        for (int q = 0; q < 8; ++q) _mm256_store_ps(block[v][q], t[q]);
      }
      const float* b = g.b + p0 * ldb;
      for (std::size_t q = 0; q < kk; ++q, b += ldb) {
#pragma GCC unroll 2
        for (int j = 0; j < NJ; ++j) {
          const __m256 bv = _mm256_broadcast_ss(b + j);
#pragma GCC unroll 4
          for (int v = 0; v < RB; ++v) {
            acc[v][j] =
                _mm256_fmadd_ps(_mm256_load_ps(block[v][q]), bv, acc[v][j]);
          }
        }
      }
    }
  }
  // Zero and NaN lanes re-run their row under gemm_tile's rule.
  int zero_or_nan[RB][NJ];
  int nan[RB][NJ];
  bool any = false;
#pragma GCC unroll 4
  for (int v = 0; v < RB; ++v) {
#pragma GCC unroll 2
    for (int j = 0; j < NJ; ++j) {
      zero_or_nan[v][j] = k == 0 ? 0 : zero_or_nan_lanes(acc[v][j], mask[v]);
      nan[v][j] = nan_lanes(acc[v][j]);
      any = any || zero_or_nan[v][j] != 0;
    }
  }
  int redo[RB] = {};
  if (any) {
    const bool tiny = simd_detail::underflowed();
    for (int v = 0; v < RB; ++v) {
      for (int j = 0; j < NJ; ++j) {
        if (g.beta != 0.0f) {
          for (std::size_t r = 0; r < 8; ++r) {
            const std::size_t i = 8 * v + r;
            col[r] = i < rows ? g.c[(i0 + i) * g.ldc + j] : 0.0f;
          }
        }
        redo[v] |= rerun_lanes(g, col, mask[v], zero_or_nan[v][j],
                               nan[v][j], tiny);
      }
    }
  }
#pragma GCC unroll 4
  for (int v = 0; v < RB; ++v) {
    const std::size_t live = std::min<std::size_t>(8, rows - 8 * v);
#pragma GCC unroll 2
    for (int j = 0; j < NJ; ++j) {
      __m256 x = acc[v][j];
      if (g.bias != nullptr) x = _mm256_add_ps(x, _mm256_set1_ps(g.bias[j]));
      if (g.relu) x = _mm256_max_ps(x, zero);
      _mm256_store_ps(col, x);
      for (std::size_t r = 0; r < live; ++r) {
        if ((redo[v] >> r & 1) == 0) g.c[(i0 + 8 * v + r) * g.ldc + j] = col[r];
      }
    }
    for (std::size_t r = 0; r < live; ++r) {
      if ((redo[v] >> r & 1) != 0) {
        const std::size_t i = i0 + 8 * v + r;
        simd_detail::gemm_chain_rows(g, i, i + 1, 0, NJ, fma_op);
      }
    }
  }
}

template <int NJ>
void narrow_rows(const GemmBlock& g, std::size_t k, std::size_t i0,
                 std::size_t rows) {
  if (rows > 16) return narrow_tile<3, NJ>(g, k, i0, rows);
  if (rows > 8) return narrow_tile<2, NJ>(g, k, i0, rows);
  return narrow_tile<1, NJ>(g, k, i0, rows);
}

/// False when A(i, p) == 0 for every i in [i0, i0 + rows) and p < k: every
/// chain of those rows is empty, so init + epilogue is exact (alpha ==
/// 1; NaN counts as a term). Stops at the first term, so dense or
/// post-ReLU rows cost one compare.
bool has_terms(const GemmBlock& g, std::size_t i0, std::size_t rows) {
  const __m256 zero = _mm256_setzero_ps();
  const auto any = [&](const float* x, std::size_t n) {
    for (std::size_t p = 0; p < n; p += 8) {
      const __m256 v = n - p >= 8 ? _mm256_loadu_ps(x + p)
                                  : _mm256_maskload_ps(x + p, lane_mask(n - p));
      if (_mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_NEQ_UQ)) != 0) {
        return true;
      }
    }
    return false;
  };
  if (g.a_col == 1) {
    for (std::size_t r = 0; r < rows; ++r) {
      if (any(g.a + (i0 + r) * g.a_row, g.k)) return true;
    }
    return false;
  }
  for (std::size_t p = 0; p < g.k; ++p) {  // a_row == 1
    if (any(g.a + i0 + p * g.a_col, rows)) return true;
  }
  return false;
}

void gemm_block(const GemmBlock& g) {
  if (g.n <= kNarrowCols) {
    for (std::size_t i0 = 0; i0 < g.m; i0 += kNarrowRows) {
      const std::size_t rows = std::min(kNarrowRows, g.m - i0);
      const std::size_t k = has_terms(g, i0, rows) ? g.k : 0;
      if (g.n == 2) {
        narrow_rows<2>(g, k, i0, rows);
      } else if (g.n == 1) {
        narrow_rows<1>(g, k, i0, rows);
      }
    }
    return;
  }
  for (std::size_t i0 = 0; i0 < g.m; i0 += kGemmRows) {
    const std::size_t rows = std::min(kGemmRows, g.m - i0);
    const std::size_t k = has_terms(g, i0, rows) ? g.k : 0;
    for (std::size_t j0 = 0; j0 < g.n; j0 += kGemmCols) {
      const std::size_t nj = std::min(kGemmCols, g.n - j0);
      if (nj == 16) {
        gemm_tile_rows<2, false>(rows, g, k, i0, j0, nj);
      } else if (nj > 8) {
        gemm_tile_rows<2, true>(rows, g, k, i0, j0, nj);
      } else if (nj == 8) {
        gemm_tile_rows<1, false>(rows, g, k, i0, j0, nj);
      } else {
        gemm_tile_rows<1, true>(rows, g, k, i0, j0, nj);
      }
    }
  }
}

void avx2_gemm(const GemmBlock& g) {
  if (g.alpha != 1.0f) {
    // The tile has no alpha multiply; no production caller scales.
    simd_detail::gemm_chain_rows(g, 0, g.m, 0, g.n, fma_op);
    return;
  }
  const simd_detail::UnderflowWatch watch;
  gemm_block(g);
}

void avx2_bias_add(float* y, const float* bias, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(bias + i)));
  }
  for (; i < n; ++i) y[i] += bias[i];
}

void avx2_bias_relu(float* y, const float* bias, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v =
        _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(bias + i));
    _mm256_storeu_ps(y + i, _mm256_max_ps(v, zero));
  }
  for (; i < n; ++i) {
    const float v = y[i] + bias[i];
    y[i] = v > 0.0f ? v : 0.0f;
  }
}

void avx2_relu(float* y, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(y + i), zero));
  }
  for (; i < n; ++i) y[i] = y[i] > 0.0f ? y[i] : 0.0f;
}

void avx2_scale(float* y, float a, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), va));
  }
  for (; i < n; ++i) y[i] *= a;
}

}  // namespace

namespace simd_detail {

const SimdOps kAvx2Ops = {
    "avx2",        avx2_axpy,      avx2_gemm,
    avx2_bias_add, avx2_bias_relu, avx2_relu,
    avx2_scale,
};

}  // namespace simd_detail
}  // namespace gcnt

#else  // !(__AVX2__ && __FMA__): non-x86 or toolchain without the flags.

namespace gcnt::simd_detail {

const SimdOps kAvx2Ops = {nullptr, nullptr, nullptr, nullptr, nullptr, nullptr,
                          nullptr};

}  // namespace gcnt::simd_detail

#endif
