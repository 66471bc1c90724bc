// Runtime CPU dispatch for the SIMD local-compute engine.
//
// The wire format is sacred; the local compute between messages is not.
// Every kernel in src/simd/ exists in two tiers — portable scalar and
// AVX2 — selected ONCE per process from cpuid, so callers never see
// intrinsics and a binary built with the per-file ISA flags still runs on
// any x86-64 (the AVX2 translation unit is only entered when cpuid says
// the instructions exist). Both tiers compute bit-identical results: the
// golden transcripts and all protocol digests are pinned across forced
// dispatch modes (tests/golden_test.cc, tests/transcript_digest_test.cc,
// bench/exp_cpu E-CPU.0), and tests/simd_test.cc drives the AVX2 tier
// against the scalar reference on randomized inputs.
//
// Overrides, in precedence order:
//   1. simd::ScopedTierOverride — test-only forced dispatch, clamped to
//      what the hardware supports;
//   2. SETINT_FORCE_SCALAR=1 — environment knob for whole-process scalar
//      runs (the ci.sh simd lane re-runs the label slice under it).
//
// See docs/PERFORMANCE.md ("The SIMD dispatch ladder") for the kernel
// inventory and the selection heuristics.
#pragma once

#include <cstdint>

namespace setint::simd {

// Kernel tiers, ordered: the higher tier implies every capability of the
// lower one. kAvx2 additionally assumes POPCNT and PCLMULQDQ (detection
// checks all three; every AVX2 part has both).
enum class Tier : int {
  kScalar = 0,
  kAvx2 = 1,
};

// CPU feature bits as reported by cpuid. Recorded in every BENCH_*.json
// environment block (bench/bench_util.h); sse4_1 is recorded only, no
// tier depends on it.
struct CpuFeatures {
  bool avx2 = false;
  bool sse4_1 = false;
  bool popcnt = false;
  bool pclmul = false;
};

// Features of the machine we are running on (detected once, cached).
const CpuFeatures& detected_features();

// Best tier the hardware supports (ignores overrides).
Tier detected_tier();

// The tier kernels actually dispatch to right now: detected_tier() capped
// by the environment override and any live ScopedTierOverride.
Tier active_tier();

// True when active_tier() comes from an override (scoped or environment)
// rather than plain hardware detection.
bool tier_forced();

// Stable lowercase name ("scalar", "avx2") — used in BENCH environment
// blocks, bench_compare classification, and test logs.
const char* tier_name(Tier tier);

// Test/bench-only forced dispatch. Requests above detected_tier() are
// clamped (you cannot execute AVX2 code on a box without AVX2). Nests;
// restores the previous override on destruction. NOT thread-safe — the
// differential suites that use it are single-threaded by design.
class ScopedTierOverride {
 public:
  explicit ScopedTierOverride(Tier tier);
  ~ScopedTierOverride();
  ScopedTierOverride(const ScopedTierOverride&) = delete;
  ScopedTierOverride& operator=(const ScopedTierOverride&) = delete;

 private:
  int previous_;
};

}  // namespace setint::simd
