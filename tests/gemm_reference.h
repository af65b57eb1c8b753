#pragma once
// Naive oracle for the fp32 GEMM one-chain policy (tensor/simd/simd.h,
// GemmBlock): every output element runs its own ascending-p chain,
// skipping terms whose alpha * A(i, p) is zero, with std::fmaf on the
// vector targets and acc + a * b on scalar. Shared by tensor_test and
// simd_test, which compare gemm / gemm_bias_act to it bit for bit.

#include <cmath>
#include <cstdint>
#include <cstring>

#include "tensor/matrix.h"
#include "tensor/simd/simd.h"

namespace gcnt {

struct ChainOptions {
  bool transpose_a = false;
  bool transpose_b = false;
  float alpha = 1.0f;
  float beta = 0.0f;
  const Matrix* c0 = nullptr;    ///< C before the call (beta != 0)
  const Matrix* bias = nullptr;  ///< 1 x n, or none
  bool relu = false;
};

/// op(a) * op(b) by the per-element chain of the given target.
inline Matrix one_chain_gemm(const Matrix& a, const Matrix& b,
                             SimdTarget target, const ChainOptions& o = {}) {
  const std::size_t m = o.transpose_a ? a.cols() : a.rows();
  const std::size_t k = o.transpose_a ? a.rows() : a.cols();
  const std::size_t n = o.transpose_b ? b.rows() : b.cols();
  const bool fused = target != SimdTarget::kScalar;
  Matrix out(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = o.beta == 0.0f ? 0.0f : o.beta * o.c0->at(i, j);
      for (std::size_t p = 0; p < k; ++p) {
        const float av = o.alpha * (o.transpose_a ? a.at(p, i) : a.at(i, p));
        if (av == 0.0f) continue;
        const float bv = o.transpose_b ? b.at(j, p) : b.at(p, j);
        acc = fused ? std::fmaf(av, bv, acc) : acc + av * bv;
      }
      if (o.bias != nullptr) acc += o.bias->at(0, j);
      if (o.relu) acc = acc > 0.0f ? acc : 0.0f;
      out.at(i, j) = acc;
    }
  }
  return out;
}

/// Bit-pattern equality, except that any two NaNs match.
inline bool same_bits(float x, float y) {
  if (std::isnan(x) && std::isnan(y)) return true;
  std::uint32_t bx = 0;
  std::uint32_t by = 0;
  std::memcpy(&bx, &x, sizeof bx);
  std::memcpy(&by, &y, sizeof by);
  return bx == by;
}

/// Index of the first element whose bits differ, or -1 when none does.
inline long first_bit_difference(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) return 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_bits(got.data()[i], want.data()[i])) return static_cast<long>(i);
  }
  return -1;
}

}  // namespace gcnt
