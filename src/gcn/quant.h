#pragma once
// Inference runs in fp32 only. This shim exists for perfbench's host
// fingerprint, which prints precision_name(resolve_precision()).

namespace gcnt {

enum class Precision : int { kFp32 = 0 };

inline const char* precision_name(Precision) { return "fp32"; }

inline Precision resolve_precision() { return Precision::kFp32; }

}  // namespace gcnt
