// AVX-512 microkernels (F + BW + VL). This translation unit is the only
// one compiled with -mavx512f -mavx512bw -mavx512vl (see
// src/tensor/CMakeLists.txt); nothing here runs unless the dispatcher
// verified CPUID support, so the rest of the binary stays executable on
// baseline x86-64 (and other ISAs compile the stub at the bottom).
//
// Masked-tail discipline: every kernel processes the remainder (< 16
// elements) with maskz loads and mask stores executing the exact same
// per-element operation as the vector body — no scalar tail loop at all.
// Because a masked lane performs the identical fmadd/add/max/mul the
// body lane would, results are independent of where a loop or tile
// boundary falls, preserving the bitwise-across-threads/tiles guarantee.
//
// Cross-target behavior: this target is bitwise identical to AVX2 for
// every fp32 kernel — the elementwise ops perform the same single
// per-element fmadd/add/max/mul, and the GEMM tile the same one FMA
// chain per output element — so auto-resolution upgrading a host from
// avx2 to avx512 never changes results. Versus scalar, the same
// FMA-contraction tolerance as AVX2 applies.

#include "tensor/simd/simd.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "tensor/simd/gemm_chain.h"

namespace gcnt {
namespace {

/// Lane mask selecting the first min(rem, 16) elements.
inline __mmask16 tail_mask(std::size_t rem) {
  return rem >= 16 ? __mmask16{0xFFFF}
                   : static_cast<__mmask16>((1u << rem) - 1u);
}

void avx512_axpy(float* y, const float* x, float a, std::size_t n) {
  const __m512 va = _mm512_set1_ps(a);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512 y0 = _mm512_loadu_ps(y + i);
    const __m512 y1 = _mm512_loadu_ps(y + i + 16);
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i), y0));
    _mm512_storeu_ps(y + i + 16,
                     _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i + 16), y1));
  }
  for (; i + 16 <= n; i += 16) {
    const __m512 y0 = _mm512_loadu_ps(y + i);
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i), y0));
  }
  if (i < n) {
    const __mmask16 m = tail_mask(n - i);
    const __m512 y0 = _mm512_maskz_loadu_ps(m, y + i);
    const __m512 x0 = _mm512_maskz_loadu_ps(m, x + i);
    _mm512_mask_storeu_ps(y + i, m, _mm512_fmadd_ps(va, x0, y0));
  }
}

// ---- fp32 GEMM tile --------------------------------------------------
// An MR x 32 register tile: per p, two B vectors (masked to the panel's
// width) and MR broadcast A values feed 2 * MR independent FMA chains —
// one per output vector, ascending p, no `av == 0` skip. A row whose
// result holds a zero or NaN re-runs the per-term chain (gemm_chain.h
// shows that everything else is already exact), so this target stays
// bitwise identical to AVX2.

constexpr std::size_t kGemmRows = 12;
constexpr std::size_t kGemmCols = 32;

float fma_op(float a, float b, float c) { return std::fmaf(a, b, c); }

/// Of a tile vector's zero-or-NaN lanes, those whose row must re-run the
/// per-term chain: NaN, and zeros whose chain did not start at exactly +0
/// or whose block saw an underflow (gemm_chain.h, steps 3 and 4).
__mmask16 rerun_lanes(const GemmBlock& g, const float* c, __mmask16 mask,
                      __mmask16 zero_or_nan, __mmask16 nan, bool tiny) {
  if (zero_or_nan == 0 || tiny) return zero_or_nan;
  __mmask16 plus_zero_start = mask;
  if (g.beta != 0.0f) {
    const __m512 init =
        _mm512_mul_ps(_mm512_set1_ps(g.beta), _mm512_maskz_loadu_ps(mask, c));
    plus_zero_start = _mm512_mask_cmpeq_epi32_mask(
        mask, _mm512_castps_si512(init), _mm512_setzero_si512());
  }
  return static_cast<__mmask16>(nan | (zero_or_nan & ~plus_zero_start));
}

template <int R, int V>
void gemm_tile(const GemmBlock& g, std::size_t k, std::size_t i0,
               std::size_t j0, std::size_t nj) {
  __mmask16 mask[V];
  for (int v = 0; v < V; ++v) mask[v] = tail_mask(nj - 16 * v);
  const __m512 zero = _mm512_setzero_ps();
  float* c = g.c + i0 * g.ldc + j0;
  __m512 acc[R][V];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      acc[r][v] = g.beta == 0.0f
                      ? zero
                      : _mm512_mul_ps(_mm512_set1_ps(g.beta),
                                      _mm512_maskz_loadu_ps(
                                          mask[v], c + r * g.ldc + 16 * v));
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
    __m512 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      bv[v] = _mm512_maskz_loadu_ps(mask[v], b + 16 * v);
    }
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * a_row]);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
    a += a_col;
    b += ldb;
  }
  // Zero and NaN lanes are the only ones that may differ from the
  // per-term chain; see rerun_lanes() for which of them re-run their row.
  __mmask16 zero_or_nan[R][V];
  __mmask16 nan[R][V];
  unsigned rerun = 0;
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      zero_or_nan[r][v] =
          k == 0 ? 0
                 : _mm512_mask_cmp_ps_mask(mask[v], acc[r][v], zero,
                                           _CMP_EQ_UQ);
      nan[r][v] = _mm512_mask_cmp_ps_mask(zero_or_nan[r][v], acc[r][v],
                                          acc[r][v], _CMP_UNORD_Q);
      if (zero_or_nan[r][v] != 0) rerun |= 1u << r;
    }
  }
  if (rerun != 0) {
    const bool tiny = simd_detail::underflowed();
    for (int r = 0; r < R; ++r) {
      __mmask16 left = 0;
      for (int v = 0; v < V; ++v) {
        left |= rerun_lanes(g, c + r * g.ldc + 16 * v, mask[v],
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
      __m512 x = acc[r][v];
      if (g.bias != nullptr) {
        x = _mm512_add_ps(
            x, _mm512_maskz_loadu_ps(mask[v], g.bias + j0 + 16 * v));
      }
      if (g.relu) x = _mm512_max_ps(x, zero);
      _mm512_mask_storeu_ps(c + r * g.ldc + 16 * v, mask[v], x);
    }
  }
}

template <int V>
void gemm_tile_rows(std::size_t rows, const GemmBlock& g, std::size_t k,
                    std::size_t i0, std::size_t j0, std::size_t nj) {
  switch (rows) {
    case 12: return gemm_tile<12, V>(g, k, i0, j0, nj);
    case 11: return gemm_tile<11, V>(g, k, i0, j0, nj);
    case 10: return gemm_tile<10, V>(g, k, i0, j0, nj);
    case 9: return gemm_tile<9, V>(g, k, i0, j0, nj);
    case 8: return gemm_tile<8, V>(g, k, i0, j0, nj);
    case 7: return gemm_tile<7, V>(g, k, i0, j0, nj);
    case 6: return gemm_tile<6, V>(g, k, i0, j0, nj);
    case 5: return gemm_tile<5, V>(g, k, i0, j0, nj);
    case 4: return gemm_tile<4, V>(g, k, i0, j0, nj);
    case 3: return gemm_tile<3, V>(g, k, i0, j0, nj);
    case 2: return gemm_tile<2, V>(g, k, i0, j0, nj);
    default: return gemm_tile<1, V>(g, k, i0, j0, nj);
  }
}

// ---- narrow n: lanes over rows ----------------------------------------
// For n <= 2 (the 128 -> 2 classifier) a 32-wide panel would be 30 of 32
// masked lanes. Here a vector holds 16 ROWS of one output column, one
// accumulator per column: per p, each vector of A(., p) meets a
// broadcast B(p, j) in one FMA — the same per-element chain. A(., p) is
// one load when A's rows are 1 apart (the dW layout); otherwise 16 x 16
// blocks of A are transposed in registers.

constexpr std::size_t kNarrowCols = 2;
constexpr std::size_t kNarrowRows = 48;

/// In place: lane j of r[i] becomes lane i of r[j].
inline void transpose16(__m512 (&r)[16]) {
  __m512 t[16];
#pragma GCC unroll 16
  for (int i = 0; i < 16; i += 2) {
    t[i] = _mm512_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm512_unpackhi_ps(r[i], r[i + 1]);
  }
  // u[4g + q] holds column 4L + q of rows 4g..4g+3 in 128-bit lane L.
  __m512 u[16];
#pragma GCC unroll 16
  for (int g4 = 0; g4 < 16; g4 += 4) {
    const __m512d t0 = _mm512_castps_pd(t[g4]);
    const __m512d t1 = _mm512_castps_pd(t[g4 + 1]);
    const __m512d t2 = _mm512_castps_pd(t[g4 + 2]);
    const __m512d t3 = _mm512_castps_pd(t[g4 + 3]);
    u[g4] = _mm512_castpd_ps(_mm512_unpacklo_pd(t0, t2));
    u[g4 + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(t0, t2));
    u[g4 + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(t1, t3));
    u[g4 + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(t1, t3));
  }
#pragma GCC unroll 16
  for (int q = 0; q < 4; ++q) {
    const __m512 x0 = _mm512_shuffle_f32x4(u[q], u[4 + q], 0x44);
    const __m512 x1 = _mm512_shuffle_f32x4(u[q], u[4 + q], 0xEE);
    const __m512 y0 = _mm512_shuffle_f32x4(u[8 + q], u[12 + q], 0x44);
    const __m512 y1 = _mm512_shuffle_f32x4(u[8 + q], u[12 + q], 0xEE);
    r[q] = _mm512_shuffle_f32x4(x0, y0, 0x88);
    r[4 + q] = _mm512_shuffle_f32x4(x0, y0, 0xDD);
    r[8 + q] = _mm512_shuffle_f32x4(x1, y1, 0x88);
    r[12 + q] = _mm512_shuffle_f32x4(x1, y1, 0xDD);
  }
}

/// Rows [i0, i0 + rows) (rows <= 16 * RB) x all NJ == n columns.
template <int RB, int NJ>
void narrow_tile(const GemmBlock& g, std::size_t k, std::size_t i0,
                 std::size_t rows) {
  __mmask16 mask[RB];
#pragma GCC unroll 16
  for (int v = 0; v < RB; ++v) mask[v] = tail_mask(rows - 16 * v);
  const __m512 zero = _mm512_setzero_ps();
  alignas(64) float col[16];
  __m512 acc[RB][NJ];
#pragma GCC unroll 16
  for (int v = 0; v < RB; ++v) {
#pragma GCC unroll 16
    for (int j = 0; j < NJ; ++j) {
      acc[v][j] = zero;
      if (g.beta == 0.0f) continue;
#pragma GCC unroll 16
      for (std::size_t r = 0; r < 16; ++r) {
        const std::size_t i = 16 * v + r;
        col[r] = i < rows ? g.c[(i0 + i) * g.ldc + j] : 0.0f;
      }
      acc[v][j] = _mm512_mul_ps(_mm512_set1_ps(g.beta), _mm512_load_ps(col));
    }
  }
  const std::size_t ldb = g.ldb;
  if (g.a_row == 1) {
    const std::size_t a_col = g.a_col;
    const float* a = g.a + i0;
    const float* b = g.b;
    for (std::size_t p = 0; p < k; ++p) {
      __m512 av[RB];
#pragma GCC unroll 16
      for (int v = 0; v < RB; ++v) {
        av[v] = _mm512_maskz_loadu_ps(mask[v], a + 16 * v);
      }
#pragma GCC unroll 16
      for (int j = 0; j < NJ; ++j) {
        const __m512 bv = _mm512_set1_ps(b[j]);
#pragma GCC unroll 16
        for (int v = 0; v < RB; ++v) {
          acc[v][j] = _mm512_fmadd_ps(av[v], bv, acc[v][j]);
        }
      }
      a += a_col;
      b += ldb;
    }
  } else {  // a_col == 1
    // All RB blocks first, then one pass over p: RB * NJ chains in flight.
    alignas(64) float block[RB][16][16];
    for (std::size_t p0 = 0; p0 < k; p0 += 16) {
      const std::size_t kk = std::min<std::size_t>(16, k - p0);
      const __mmask16 kmask = tail_mask(kk);
#pragma GCC unroll 16
      for (int v = 0; v < RB; ++v) {
        __m512 t[16];
#pragma GCC unroll 16
        for (std::size_t r = 0; r < 16; ++r) {
          const std::size_t i = 16 * v + r;
          t[r] = i < rows ? _mm512_maskz_loadu_ps(
                                kmask, g.a + (i0 + i) * g.a_row + p0)
                          : zero;
        }
        transpose16(t);
#pragma GCC unroll 16
        for (int q = 0; q < 16; ++q) _mm512_store_ps(block[v][q], t[q]);
      }
      const float* b = g.b + p0 * ldb;
      for (std::size_t q = 0; q < kk; ++q, b += ldb) {
#pragma GCC unroll 16
        for (int j = 0; j < NJ; ++j) {
          const __m512 bv = _mm512_set1_ps(b[j]);
#pragma GCC unroll 16
          for (int v = 0; v < RB; ++v) {
            acc[v][j] =
                _mm512_fmadd_ps(_mm512_load_ps(block[v][q]), bv, acc[v][j]);
          }
        }
      }
    }
  }
  // Zero and NaN lanes re-run their row under gemm_tile's rule.
  __mmask16 zero_or_nan[RB][NJ];
  __mmask16 nan[RB][NJ];
  bool any = false;
#pragma GCC unroll 16
  for (int v = 0; v < RB; ++v) {
#pragma GCC unroll 16
    for (int j = 0; j < NJ; ++j) {
      zero_or_nan[v][j] =
          k == 0 ? 0
                 : _mm512_mask_cmp_ps_mask(mask[v], acc[v][j], zero,
                                           _CMP_EQ_UQ);
      nan[v][j] = _mm512_mask_cmp_ps_mask(zero_or_nan[v][j], acc[v][j],
                                          acc[v][j], _CMP_UNORD_Q);
      any = any || zero_or_nan[v][j] != 0;
    }
  }
  __mmask16 redo[RB] = {};
  if (any) {
    const bool tiny = simd_detail::underflowed();
    for (int v = 0; v < RB; ++v) {
      for (int j = 0; j < NJ; ++j) {
        if (g.beta != 0.0f) {
          for (std::size_t r = 0; r < 16; ++r) {
            const std::size_t i = 16 * v + r;
            col[r] = i < rows ? g.c[(i0 + i) * g.ldc + j] : 0.0f;
          }
        }
        redo[v] |= rerun_lanes(g, col, mask[v], zero_or_nan[v][j],
                               nan[v][j], tiny);
      }
    }
  }
#pragma GCC unroll 16
  for (int v = 0; v < RB; ++v) {
    const std::size_t live = std::min<std::size_t>(16, rows - 16 * v);
#pragma GCC unroll 16
    for (int j = 0; j < NJ; ++j) {
      __m512 x = acc[v][j];
      if (g.bias != nullptr) x = _mm512_add_ps(x, _mm512_set1_ps(g.bias[j]));
      if (g.relu) x = _mm512_max_ps(x, zero);
      _mm512_store_ps(col, x);
      for (std::size_t r = 0; r < live; ++r) {
        if ((redo[v] >> r & 1u) == 0) g.c[(i0 + 16 * v + r) * g.ldc + j] = col[r];
      }
    }
    for (std::size_t r = 0; r < live; ++r) {
      if ((redo[v] >> r & 1u) != 0) {
        const std::size_t i = i0 + 16 * v + r;
        simd_detail::gemm_chain_rows(g, i, i + 1, 0, NJ, fma_op);
      }
    }
  }
}

template <int NJ>
void narrow_rows(const GemmBlock& g, std::size_t k, std::size_t i0,
                 std::size_t rows) {
  if (rows > 32) return narrow_tile<3, NJ>(g, k, i0, rows);
  if (rows > 16) return narrow_tile<2, NJ>(g, k, i0, rows);
  return narrow_tile<1, NJ>(g, k, i0, rows);
}

/// False when A(i, p) == 0 for every i in [i0, i0 + rows) and p < k: every
/// chain of those rows is empty, so init + epilogue is exact (alpha ==
/// 1; NaN counts as a term). Stops at the first term, so dense or
/// post-ReLU rows cost one compare.
bool has_terms(const GemmBlock& g, std::size_t i0, std::size_t rows) {
  const __m512 zero = _mm512_setzero_ps();
  const auto any = [&](const float* x, std::size_t n) {
    for (std::size_t p = 0; p < n; p += 16) {
      const __mmask16 m = tail_mask(n - p);
      if (_mm512_mask_cmp_ps_mask(m, _mm512_maskz_loadu_ps(m, x + p), zero,
                                  _CMP_NEQ_UQ) != 0) {
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
      if (nj > 16) {
        gemm_tile_rows<2>(rows, g, k, i0, j0, nj);
      } else {
        gemm_tile_rows<1>(rows, g, k, i0, j0, nj);
      }
    }
  }
}

void avx512_gemm(const GemmBlock& g) {
  if (g.alpha != 1.0f) {
    // The tile has no alpha multiply; no production caller scales.
    simd_detail::gemm_chain_rows(g, 0, g.m, 0, g.n, fma_op);
    return;
  }
  const simd_detail::UnderflowWatch watch;
  gemm_block(g);
}

void avx512_bias_add(float* y, const float* bias, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, _mm512_add_ps(_mm512_loadu_ps(y + i),
                                          _mm512_loadu_ps(bias + i)));
  }
  if (i < n) {
    const __mmask16 m = tail_mask(n - i);
    _mm512_mask_storeu_ps(y + i, m,
                          _mm512_add_ps(_mm512_maskz_loadu_ps(m, y + i),
                                        _mm512_maskz_loadu_ps(m, bias + i)));
  }
}

void avx512_bias_relu(float* y, const float* bias, std::size_t n) {
  const __m512 zero = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v =
        _mm512_add_ps(_mm512_loadu_ps(y + i), _mm512_loadu_ps(bias + i));
    _mm512_storeu_ps(y + i, _mm512_max_ps(v, zero));
  }
  if (i < n) {
    const __mmask16 m = tail_mask(n - i);
    const __m512 v = _mm512_add_ps(_mm512_maskz_loadu_ps(m, y + i),
                                   _mm512_maskz_loadu_ps(m, bias + i));
    _mm512_mask_storeu_ps(y + i, m, _mm512_max_ps(v, zero));
  }
}

void avx512_relu(float* y, std::size_t n) {
  const __m512 zero = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, _mm512_max_ps(_mm512_loadu_ps(y + i), zero));
  }
  if (i < n) {
    const __mmask16 m = tail_mask(n - i);
    _mm512_mask_storeu_ps(
        y + i, m, _mm512_max_ps(_mm512_maskz_loadu_ps(m, y + i), zero));
  }
}

void avx512_scale(float* y, float a, std::size_t n) {
  const __m512 va = _mm512_set1_ps(a);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, _mm512_mul_ps(_mm512_loadu_ps(y + i), va));
  }
  if (i < n) {
    const __mmask16 m = tail_mask(n - i);
    _mm512_mask_storeu_ps(
        y + i, m, _mm512_mul_ps(_mm512_maskz_loadu_ps(m, y + i), va));
  }
}

}  // namespace

namespace simd_detail {

const SimdOps kAvx512Ops = {
    "avx512",        avx512_axpy,      avx512_gemm,
    avx512_bias_add, avx512_bias_relu, avx512_relu,
    avx512_scale,
};

}  // namespace simd_detail
}  // namespace gcnt

#else  // !(__AVX512F__ && __AVX512BW__ && __AVX512VL__)

namespace gcnt::simd_detail {

const SimdOps kAvx512Ops = {nullptr, nullptr, nullptr, nullptr,
                            nullptr, nullptr, nullptr};

}  // namespace gcnt::simd_detail

#endif
