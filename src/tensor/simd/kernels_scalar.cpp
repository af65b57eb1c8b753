// Portable fallback microkernels. The loops are blocked at a fixed width
// of 8 elements so the compiler's vectorizer has a clean unit to work
// with on any ISA, but every operation stays per-element independent (or,
// for the GEMM chain, strictly ascending-order) — this target reproduces
// the historical scalar kernels bit-for-bit, which is what the
// cross-target tolerance tests compare AVX2/AVX-512 against.

#include "tensor/simd/simd.h"

#include "tensor/simd/gemm_chain.h"

namespace gcnt {
namespace {

constexpr std::size_t kBlock = 8;

void scalar_axpy(float* y, const float* x, float a, std::size_t n) {
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    for (std::size_t j = 0; j < kBlock; ++j) y[i + j] += a * x[i + j];
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void scalar_gemm(const GemmBlock& g) {
  // The per-term chain itself, with two roundings per term (no FMA).
  simd_detail::gemm_chain_rows(
      g, 0, g.m, 0, g.n,
      [](float a, float b, float c) { return c + a * b; });
}

void scalar_bias_add(float* y, const float* bias, std::size_t n) {
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    for (std::size_t j = 0; j < kBlock; ++j) y[i + j] += bias[i + j];
  }
  for (; i < n; ++i) y[i] += bias[i];
}

void scalar_bias_relu(float* y, const float* bias, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float v = y[i] + bias[i];
    y[i] = v > 0.0f ? v : 0.0f;
  }
}

void scalar_relu(float* y, std::size_t n) {
  // `v > 0 ? v : 0` (not `v < 0`) so -0.0 canonicalizes to +0.0 exactly
  // like the historical Relu::forward and the AVX2 max(v, 0).
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = y[i] > 0.0f ? y[i] : 0.0f;
  }
}

void scalar_scale(float* y, float a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= a;
}

}  // namespace

namespace simd_detail {

const SimdOps kScalarOps = {
    "scalar",        scalar_axpy,      scalar_gemm,
    scalar_bias_add, scalar_bias_relu, scalar_relu,
    scalar_scale,
};

}  // namespace simd_detail
}  // namespace gcnt
