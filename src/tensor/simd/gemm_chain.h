#pragma once
// The per-term GEMM chain of simd.h's GemmBlock, shared by the three
// SimdOps::gemm implementations (private to src/tensor/simd). Each TU
// instantiates it with its own multiply-add: the scalar target runs it
// for every block, the vector targets for the rows their FMA tile cannot
// vouch for.
//
// Why the vector tiles may drop the `av == 0` skip:
//   1. With av == 0 and a finite b, fma(av, b, acc) is exactly acc unless
//      acc is a zero, which may flip sign. So the chain without the skip
//      equals the skipping chain up to the sign of a zero at every step —
//      until a skipped term meets a NaN or Inf in b, which makes the
//      no-skip chain NaN for good.
//   2. A no-skip result that is neither zero nor NaN is therefore exact.
//   3. A zero result is exact too when its chain starts at exactly +0 and
//      no step underflowed (no nonzero exact value rounded to zero, which
//      the MXCSR underflow flag records): a sum of zeros of mixed sign is
//      +0, so neither chain can ever hold -0 and both end at +0.
//   4. Every other zero or NaN result re-runs this chain for its row.
// Rows whose A is all zeros have empty chains: the tiles find those up
// front and write init + epilogue without the multiply-adds.

#include <cstddef>

#include "tensor/simd/simd.h"

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

// Internal linkage on purpose: the TUs that include this are built with
// different ISA flags, and a shared (merged) instantiation could carry
// AVX-512 code into the AVX2 path.
namespace gcnt::simd_detail {
namespace {

/// Rows [i0, i1) x columns [j0, j1) of `g` by the per-term chain and the
/// epilogue, written to C. `madd(a, b, c)` is the target's a * b + c.
template <typename MulAdd>
void gemm_chain_rows(const GemmBlock& g, std::size_t i0, std::size_t i1,
                     std::size_t j0, std::size_t j1, MulAdd madd) {
  for (std::size_t i = i0; i < i1; ++i) {
    float* crow = g.c + i * g.ldc;
    for (std::size_t j = j0; j < j1; ++j) {
      crow[j] = g.beta == 0.0f ? 0.0f : g.beta * crow[j];
    }
    const float* a = g.a + i * g.a_row;
    for (std::size_t p = 0; p < g.k; ++p) {
      const float av = g.alpha * a[p * g.a_col];
      if (av == 0.0f) continue;
      const float* brow = g.b + p * g.ldb;
      for (std::size_t j = j0; j < j1; ++j) crow[j] = madd(av, brow[j], crow[j]);
    }
    for (std::size_t j = j0; j < j1; ++j) {
      float v = crow[j];
      if (g.bias != nullptr) v += g.bias[j];
      // `v > 0 ? v : 0` is max_ps(v, 0): NaN and -0 both become +0.
      if (g.relu) v = v > 0.0f ? v : 0.0f;
      crow[j] = v;
    }
  }
}

#if defined(__SSE__)
/// Clears the sticky underflow flag (MXCSR.UE) for one SimdOps::gemm call
/// and, on exit, ORs the caller's flag back so it stays sticky.
class UnderflowWatch {
 public:
  UnderflowWatch() : caller_csr_(_mm_getcsr()) {
    _mm_setcsr(caller_csr_ & ~_MM_EXCEPT_UNDERFLOW);
  }
  ~UnderflowWatch() {
    _mm_setcsr(_mm_getcsr() | (caller_csr_ & _MM_EXCEPT_UNDERFLOW));
  }
  UnderflowWatch(const UnderflowWatch&) = delete;
  UnderflowWatch& operator=(const UnderflowWatch&) = delete;

 private:
  unsigned caller_csr_;
};

/// True when an operation since the UnderflowWatch began rounded a tiny
/// result — in particular, a nonzero exact result to zero.
inline bool underflowed() {
  return (_mm_getcsr() & _MM_EXCEPT_UNDERFLOW) != 0;
}
#endif

}  // namespace
}  // namespace gcnt::simd_detail
