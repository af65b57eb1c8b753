#pragma once
// Vectorized microkernel backend for the dense/sparse hot loops.
//
// Every inner loop the compute kernels spend their time in (the dense
// GEMM tile, SpMM row accumulation, the bias/ReLU epilogues, the
// and the vec_ops.h row helpers) funnels through
// one table of function pointers — SimdOps — resolved once per process
// by runtime CPU detection. Three implementations are built into every
// binary:
//
//   * scalar — portable fixed-width-blocked loops, no ISA requirements.
//     The per-element accumulation order of the fp32 ops is exactly the
//     historical scalar kernels', so results on this target reproduce
//     pre-SIMD builds bit-for-bit.
//   * avx2   — AVX2 + FMA intrinsics (x86-64 only), compiled in a
//     separate translation unit with -mavx2 -mfma and only ever invoked
//     after a CPUID check, so the binary stays runnable on older CPUs.
//   * avx512 — AVX-512 F/BW/VL intrinsics (x86-64 only), again a
//     separate TU behind CPUID. 16-lane kernels with masked-tail
//     handling: remainder elements are processed by masked loads/stores
//     with the same per-element operation as the vector body, so tails
//     never change results.
//
// Target resolution, highest priority first:
//   1. set_simd_target(t)  — programmatic override (tests, benches,
//      the gcnt --simd flag)
//   2. GCNT_SIMD=auto|avx512|avx2|scalar — environment, read once per
//      process (an unavailable request logs a warning and falls back to
//      the best available target)
//   3. best target the CPU supports (avx512 > avx2 > scalar)
//
// Determinism contract (see docs/API.md "SIMD backend"):
//   * For a FIXED target, every kernel built on these ops is bitwise
//     deterministic across thread counts, SpMM tile widths, GEMM tiles,
//     and runs — vector lanes map one-to-one onto output elements, so no
//     fp32 op reassociates a sum.
//   * ACROSS targets the fp32 results differ within a small tolerance:
//     the AVX2/AVX-512 ops contract multiply-add pairs to FMA (one
//     rounding instead of two). AVX2 and AVX-512 are bitwise identical.
//
// The active target is published to the stats registry as the
// "simd.target" gauge (0 = scalar, 1 = avx2, 2 = avx512) and recorded by
// the bench JSON writer as "schema.simd" so perf results always carry
// the path that produced them.

#include <cstddef>
#include <cstdint>

namespace gcnt {

enum class SimdTarget : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// One block of C = epilogue(chain), the argument of SimdOps::gemm
/// (tensor/matrix.cpp partitions a whole GEMM into these). Element
/// (i, j) runs ONE chain in ascending p:
///
///   acc = beta == 0 ? +0 : beta * C(i, j)
///   for p in [0, k):  av = alpha * A(i, p)
///                     if (av != 0) acc = madd(av, B(p, j), acc)
///   if (bias) acc += bias[j];  if (relu) acc = max(acc, 0);  C(i, j) = acc
///
/// with madd(a, b, c) = fmaf(a, b, c) on AVX2/AVX-512 and c + a * b on
/// scalar. The `av == 0` skip is part of the result: a zero in A masks a
/// NaN or Inf in B. Splitting [0, k) into consecutive blocks (beta = 1
/// after the first, bias/relu on the last) gives the same bits.
struct GemmBlock {
  std::size_t m = 0;  ///< rows of C
  std::size_t n = 0;  ///< columns of C
  std::size_t k = 0;  ///< chain length
  /// A(i, p) = a[i * a_row + p * a_col]; a_row or a_col is 1.
  const float* a = nullptr;
  std::size_t a_row = 0;
  std::size_t a_col = 0;
  const float* b = nullptr;  ///< B(p, j) = b[p * ldb + j]
  std::size_t ldb = 0;
  float* c = nullptr;  ///< C(i, j) = c[i * ldc + j]; not read if beta == 0
  std::size_t ldc = 0;
  float alpha = 1.0f;
  float beta = 0.0f;
  const float* bias = nullptr;  ///< n entries, or none
  bool relu = false;
};

/// The microkernel table. All pointers are always non-null.
struct SimdOps {
  /// Human-readable target name ("scalar", "avx2", "avx512").
  const char* name;

  /// y[i] += a * x[i] for i in [0, n).
  void (*axpy)(float* y, const float* x, float a, std::size_t n);

  /// The dense fp32 GEMM tile kernel: computes one GemmBlock (above)
  /// under the one-chain policy. The vector targets run an MR x NR
  /// register tile; scalar runs the per-term chain directly.
  void (*gemm)(const GemmBlock& block);

  /// y[i] += bias[i] (row-broadcast bias epilogue).
  void (*bias_add)(float* y, const float* bias, std::size_t n);

  /// y[i] = max(y[i] + bias[i], 0) — fused bias + ReLU epilogue.
  void (*bias_relu)(float* y, const float* bias, std::size_t n);

  /// y[i] = max(y[i], 0) in place.
  void (*relu)(float* y, std::size_t n);

  /// y[i] *= a.
  void (*scale)(float* y, float a, std::size_t n);

};

/// The resolved microkernel table (override > GCNT_SIMD > CPU detect).
/// Cheap enough to call per kernel invocation: one relaxed atomic load.
const SimdOps& simd_ops();

/// The resolved dispatch target.
SimdTarget simd_target();

/// Name of the resolved dispatch target ("scalar" / "avx2" / "avx512").
const char* simd_target_name();

/// True when this host can execute `target`.
bool simd_target_available(SimdTarget target);

/// Forces the dispatch target. Returns false (and changes nothing) when
/// the host cannot execute it. Must not race with running kernels.
bool set_simd_target(SimdTarget target);

/// Drops the programmatic override; resolution falls back to
/// GCNT_SIMD / CPU detection on next use.
void reset_simd_target();

namespace simd_detail {
/// The built-in tables (kernels_scalar.cpp / kernels_avx2.cpp /
/// kernels_avx512.cpp).
extern const SimdOps kScalarOps;
extern const SimdOps kAvx2Ops;    ///< name == nullptr when compiled out
extern const SimdOps kAvx512Ops;  ///< name == nullptr when compiled out
}  // namespace simd_detail

}  // namespace gcnt
