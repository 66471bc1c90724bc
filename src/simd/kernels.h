// The stable kernel API of the SIMD local-compute engine.
//
// Two kernel families, each dispatched at runtime across the tier ladder
// of simd/dispatch.h (scalar / AVX2). Callers never see intrinsics; they
// see plain functions over spans whose results are bit-identical on both
// tiers:
//
//   1. adaptive sorted-set intersection — an intersectInt-style oracle
//      (Lemire/Kurz lineage): a size-ratio heuristic selects scalar merge,
//      galloping, a SIMD block-compare kernel, or SIMD galloping. Backs
//      util::set_intersection (the plaintext baseline, result
//      verification, and the per-bucket set-reconcile steps).
//   2. bitmap AND + popcount — StormBitmaps-style bucket-membership
//      kernels over the occupancy bitmaps that util::FlatBuckets CSR
//      tables carry (core/bucket_eq joins them to skip memberless
//      buckets).
//
// Contract shared by every kernel: results equal the scalar reference for
// all inputs (randomized differential suite: tests/simd_test.cc, pinned
// again at bench time by exp_cpu's scalar-vs-SIMD gate). The selection
// heuristic and crossover table are documented in docs/PERFORMANCE.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "simd/dispatch.h"

namespace setint::simd {

// ---------------------------------------------------------------------------
// Family 1: adaptive sorted-set intersection
// ---------------------------------------------------------------------------

// The algorithms behind the adaptive oracle. Selection is by size ratio
// (crossover table in docs/PERFORMANCE.md); every algorithm produces the
// identical output on canonical inputs.
enum class IntersectAlgo : int {
  kScalarMerge = 0,  // textbook two-pointer merge
  kGallop = 1,       // per-element exponential + binary search
  kBlock = 2,        // SIMD block-compare (v1-style, 2- or 4-wide)
  kBlockGallop = 3,  // galloping with a SIMD block finish
};

const char* intersect_algo_name(IntersectAlgo algo);

// The heuristic: which algorithm intersect_sorted would run for input
// lengths (na, nb) at `tier`. Exposed so the planner's local-cost model
// and the docs' crossover table stay truthful to the dispatcher.
IntersectAlgo plan_intersect(std::size_t na, std::size_t nb, Tier tier);

// Crossover constants of plan_intersect (documented, tested, and quoted
// by docs/PERFORMANCE.md — change all three places together).
inline constexpr std::size_t kGallopRatio = 50;       // large/small >= 50
inline constexpr std::size_t kBlockGallopRatio = 1000;
inline constexpr std::size_t kBlockMinSmall = 16;     // block needs >= 16

// SIMD compress-stores write whole vectors: `out` must have room for
// min(a.size(), b.size()) + kIntersectPadding elements on BOTH tiers (the
// requirement is tier-independent so buffer sizing cannot depend on
// dispatch).
inline constexpr std::size_t kIntersectPadding = 8;

// Intersection of two canonical (strictly increasing) sets into out;
// returns the number of elements written. Output is strictly increasing.
// Throws std::invalid_argument when out is smaller than the padded bound.
std::size_t intersect_sorted(std::span<const std::uint64_t> a,
                             std::span<const std::uint64_t> b,
                             std::span<std::uint64_t> out);

// Forced algorithm + tier entry point for the differential suite and the
// bench lane. `tier` above the detected maximum is clamped; kBlock /
// kBlockGallop at the scalar tier degrade to their scalar counterparts.
std::size_t intersect_sorted_with(IntersectAlgo algo, Tier tier,
                                  std::span<const std::uint64_t> a,
                                  std::span<const std::uint64_t> b,
                                  std::span<std::uint64_t> out);

// ---------------------------------------------------------------------------
// Family 2: bitmap AND + popcount
// ---------------------------------------------------------------------------

// popcount(a & b) over two equal-length word arrays (StormBitmaps-style
// intersect-count). Requires a.size() == b.size().
std::uint64_t bitmap_and_count(std::span<const std::uint64_t> a,
                               std::span<const std::uint64_t> b);

// out[i] = a[i] & b[i]. Requires equal lengths, out.size() >= a.size().
void bitmap_and(std::span<const std::uint64_t> a,
                std::span<const std::uint64_t> b,
                std::span<std::uint64_t> out);

// Bit test helper for occupancy bitmaps (bit i of the word array).
inline bool bitmap_test(std::span<const std::uint64_t> bits, std::size_t i) {
  return (bits[i >> 6] >> (i & 63)) & 1u;
}

}  // namespace setint::simd
