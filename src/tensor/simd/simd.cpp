#include "tensor/simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/log.h"
#include "common/stats.h"

namespace gcnt {

namespace {

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if defined(__x86_64__) || defined(_M_X64)
  // The AVX-512 TU is compiled with -mavx512f -mavx512bw -mavx512vl, so
  // the host needs all three.
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

bool avx2_compiled_in() { return simd_detail::kAvx2Ops.name != nullptr; }
bool avx512_compiled_in() { return simd_detail::kAvx512Ops.name != nullptr; }

const SimdOps* table_for(SimdTarget target) {
  switch (target) {
    case SimdTarget::kAvx512:
      return &simd_detail::kAvx512Ops;
    case SimdTarget::kAvx2:
      return &simd_detail::kAvx2Ops;
    case SimdTarget::kScalar:
      break;
  }
  return &simd_detail::kScalarOps;
}

/// Publishes the active target so traces/stats/benches can record which
/// path produced their numbers.
void publish_target(SimdTarget target) {
  StatsRegistry::instance().gauge("simd.target").set(static_cast<int>(target));
}

/// Best target the host supports: avx512 > avx2 > scalar.
SimdTarget best_target() {
  if (simd_target_available(SimdTarget::kAvx512)) return SimdTarget::kAvx512;
  if (simd_target_available(SimdTarget::kAvx2)) return SimdTarget::kAvx2;
  return SimdTarget::kScalar;
}

SimdTarget detect_target() {
  const char* env = std::getenv("GCNT_SIMD");
  if (env != nullptr && *env != '\0' && std::strcmp(env, "auto") != 0) {
    if (std::strcmp(env, "scalar") == 0) return SimdTarget::kScalar;
    if (std::strcmp(env, "avx2") == 0) {
      if (simd_target_available(SimdTarget::kAvx2)) return SimdTarget::kAvx2;
      log_warn("GCNT_SIMD=avx2 requested but this host cannot run AVX2+FMA; "
               "falling back to scalar");
      return SimdTarget::kScalar;
    }
    if (std::strcmp(env, "avx512") == 0) {
      if (simd_target_available(SimdTarget::kAvx512)) {
        return SimdTarget::kAvx512;
      }
      // Graceful skip, not a failure: CI runs a GCNT_SIMD=avx512 leg on
      // runners that may not have AVX-512 — those hosts run the best
      // target they do have.
      log_warn("GCNT_SIMD=avx512 requested but this host cannot run "
               "AVX-512F/BW/VL; falling back to ",
               simd_target_available(SimdTarget::kAvx2) ? "avx2" : "scalar");
      return simd_target_available(SimdTarget::kAvx2) ? SimdTarget::kAvx2
                                                      : SimdTarget::kScalar;
    }
    log_warn("unknown GCNT_SIMD value '", env,
             "' (want auto|avx512|avx2|scalar); using auto");
  }
  return best_target();
}

/// The resolved table. Written only by resolution/override, read on every
/// kernel entry with a relaxed load (the table itself is immutable).
std::atomic<const SimdOps*> active_ops{nullptr};

const SimdOps& resolve() {
  const SimdOps* ops = active_ops.load(std::memory_order_acquire);
  if (ops != nullptr) return *ops;
  const SimdTarget target = detect_target();
  ops = table_for(target);
  active_ops.store(ops, std::memory_order_release);
  publish_target(target);
  return *ops;
}

}  // namespace

const SimdOps& simd_ops() { return resolve(); }

SimdTarget simd_target() {
  const SimdOps* ops = &resolve();
  if (ops == &simd_detail::kAvx512Ops) return SimdTarget::kAvx512;
  if (ops == &simd_detail::kAvx2Ops) return SimdTarget::kAvx2;
  return SimdTarget::kScalar;
}

const char* simd_target_name() { return resolve().name; }

bool simd_target_available(SimdTarget target) {
  switch (target) {
    case SimdTarget::kScalar:
      return true;
    case SimdTarget::kAvx2:
      return avx2_compiled_in() && cpu_has_avx2_fma();
    case SimdTarget::kAvx512:
      return avx512_compiled_in() && cpu_has_avx512();
  }
  return false;
}

bool set_simd_target(SimdTarget target) {
  if (!simd_target_available(target)) return false;
  active_ops.store(table_for(target), std::memory_order_release);
  publish_target(target);
  return true;
}

void reset_simd_target() {
  active_ops.store(nullptr, std::memory_order_release);
  (void)resolve();
}

}  // namespace gcnt
