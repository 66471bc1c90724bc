// Differential suite for the SIMD local-compute engine (ctest -L simd).
//
// Both kernel tiers are driven via forced dispatch against the portable
// scalar reference on randomized inputs plus the adversarial shapes the
// kernels special-case: empty sets, one-element sets, full overlap,
// disjoint ranges, ragged tails, and sizes straddling every crossover of
// the intersection heuristic. The ci.sh simd lane runs this suite twice —
// natively and under SETINT_FORCE_SCALAR=1 — and the forced entry points
// deliberately reach the real AVX2 tier in both modes (they clamp to
// hardware capability, not to the environment override), so the
// differential coverage is identical either way; what the scalar re-run
// checks is that the *dispatched* paths degrade correctly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "core/bucket_eq.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

using simd::IntersectAlgo;
using simd::Tier;

std::vector<Tier> all_tiers() {
  return {Tier::kScalar, Tier::kAvx2};
}

// Strictly increasing set of the given size with geometric-ish gaps.
std::vector<std::uint64_t> make_canonical(util::Rng& rng, std::size_t n,
                                          std::uint64_t max_gap) {
  std::vector<std::uint64_t> out;
  out.reserve(n);
  std::uint64_t v = rng.below(64);
  for (std::size_t i = 0; i < n; ++i) {
    v += 1 + rng.below(max_gap);
    out.push_back(v);
  }
  return out;
}

// ---------- dispatch ladder ----------

TEST(SimdDispatch, TierLadderIsConsistent) {
  const simd::CpuFeatures& f = simd::detected_features();
  const Tier hw = simd::detected_tier();
  // The AVX2 tier needs both of its cpuid bits.
  if (hw == Tier::kAvx2) {
    EXPECT_TRUE(f.avx2);
    EXPECT_TRUE(f.popcnt);
  }
  // active_tier never exceeds the hardware.
  EXPECT_LE(static_cast<int>(simd::active_tier()), static_cast<int>(hw));
}

TEST(SimdDispatch, ForcedScalarEnvironmentWins) {
  // This test runs in both ci.sh modes; only assert the env contract when
  // the variable is actually set (the native run asserts the default).
  const char* forced = std::getenv("SETINT_FORCE_SCALAR");
  if (forced != nullptr && forced[0] != '\0' &&
      !(forced[0] == '0' && forced[1] == '\0')) {
    EXPECT_EQ(simd::active_tier(), Tier::kScalar);
  } else {
    EXPECT_EQ(simd::active_tier(), simd::detected_tier());
  }
}

TEST(SimdDispatch, ScopedOverrideClampsAndNests) {
  const Tier hw = simd::detected_tier();
  {
    simd::ScopedTierOverride outer(Tier::kScalar);
    EXPECT_EQ(simd::active_tier(), Tier::kScalar);
    {
      // Requests above the hardware clamp instead of faulting.
      simd::ScopedTierOverride inner(Tier::kAvx2);
      EXPECT_EQ(simd::active_tier(), std::min(Tier::kAvx2, hw));
    }
    EXPECT_EQ(simd::active_tier(), Tier::kScalar);
  }
  EXPECT_EQ(static_cast<int>(simd::active_tier()) <= static_cast<int>(hw),
            true);
}

TEST(SimdDispatch, TierNamesAreStable) {
  // bench_util.h writes these into BENCH environment blocks and
  // bench_compare keys on them: renaming is a schema change.
  EXPECT_STREQ(simd::tier_name(Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::tier_name(Tier::kAvx2), "avx2");
}

// ---------- intersection heuristic ----------

TEST(SimdPlan, CrossoversMatchDocumentedTable) {
  // Straddle each crossover from docs/PERFORMANCE.md exactly.
  const std::size_t g = simd::kGallopRatio;        // 50
  const std::size_t bg = simd::kBlockGallopRatio;  // 1000
  const std::size_t bm = simd::kBlockMinSmall;     // 16

  // AVX2 tier.
  {
    const Tier tier = Tier::kAvx2;
    EXPECT_EQ(simd::plan_intersect(0, 100, tier), IntersectAlgo::kScalarMerge);
    EXPECT_EQ(simd::plan_intersect(4, 4 * (bg - 1), tier),
              IntersectAlgo::kGallop);
    EXPECT_EQ(simd::plan_intersect(4, 4 * bg, tier),
              IntersectAlgo::kBlockGallop);
    EXPECT_EQ(simd::plan_intersect(bm, bm * (g - 1), tier),
              IntersectAlgo::kBlock);
    EXPECT_EQ(simd::plan_intersect(bm, bm * g, tier), IntersectAlgo::kGallop);
    EXPECT_EQ(simd::plan_intersect(bm - 1, bm - 1, tier),
              IntersectAlgo::kScalarMerge);
    EXPECT_EQ(simd::plan_intersect(bm, bm, tier), IntersectAlgo::kBlock);
    // Symmetry: operand order never changes the plan.
    EXPECT_EQ(simd::plan_intersect(4 * bg, 4, tier),
              simd::plan_intersect(4, 4 * bg, tier));
  }

  // Scalar tier: no block kernels, ever.
  EXPECT_EQ(simd::plan_intersect(bm, bm, Tier::kScalar),
            IntersectAlgo::kScalarMerge);
  EXPECT_EQ(simd::plan_intersect(4, 4 * bg, Tier::kScalar),
            IntersectAlgo::kGallop);
  EXPECT_EQ(simd::plan_intersect(bm, bm * g, Tier::kScalar),
            IntersectAlgo::kGallop);
}

// ---------- intersection kernels: every algo x tier vs reference ----------

void check_intersection(const std::vector<std::uint64_t>& a,
                        const std::vector<std::uint64_t>& b,
                        const char* label) {
  // Reference: the STL on canonical inputs.
  std::vector<std::uint64_t> want;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(want));
  std::vector<std::uint64_t> out(std::min(a.size(), b.size()) +
                                 simd::kIntersectPadding);
  for (Tier tier : all_tiers()) {
    for (IntersectAlgo algo :
         {IntersectAlgo::kScalarMerge, IntersectAlgo::kGallop,
          IntersectAlgo::kBlock, IntersectAlgo::kBlockGallop}) {
      const std::size_t n = simd::intersect_sorted_with(algo, tier, a, b, out);
      ASSERT_EQ(n, want.size())
          << label << " algo=" << simd::intersect_algo_name(algo)
          << " tier=" << simd::tier_name(tier) << " na=" << a.size()
          << " nb=" << b.size();
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], want[i])
            << label << " algo=" << simd::intersect_algo_name(algo)
            << " tier=" << simd::tier_name(tier) << " i=" << i;
      }
    }
  }
  // The adaptive entry (dispatched tier) agrees too.
  const std::size_t n = simd::intersect_sorted(a, b, out);
  ASSERT_EQ(n, want.size()) << label << " adaptive";
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], want[i]);
}

TEST(SimdIntersect, EdgeShapes) {
  util::Rng rng(0x51D0);
  const std::vector<std::uint64_t> empty;
  const std::vector<std::uint64_t> one{42};
  const std::vector<std::uint64_t> small = make_canonical(rng, 7, 9);
  const std::vector<std::uint64_t> big = make_canonical(rng, 300, 5);

  check_intersection(empty, empty, "empty/empty");
  check_intersection(empty, big, "empty/big");
  check_intersection(big, empty, "big/empty");
  check_intersection(one, one, "one/one-equal");
  check_intersection(one, {{41}}, "one/one-miss");
  check_intersection(one, big, "one/big");
  check_intersection(small, small, "full-overlap");
  check_intersection(big, big, "full-overlap-big");

  // Fully disjoint value ranges (vector loops terminate on block maxes).
  std::vector<std::uint64_t> lo_range = make_canonical(rng, 64, 3);
  std::vector<std::uint64_t> hi_range = make_canonical(rng, 64, 3);
  for (auto& v : hi_range) v += 1'000'000;
  check_intersection(lo_range, hi_range, "disjoint-ranges");

  // Interleaved with no matches (all-odd vs all-even).
  std::vector<std::uint64_t> odds, evens;
  for (std::uint64_t i = 0; i < 100; ++i) {
    odds.push_back(2 * i + 1);
    evens.push_back(2 * i);
  }
  check_intersection(odds, evens, "interleaved-disjoint");
}

TEST(SimdIntersect, SizesStraddlingEveryCrossover) {
  util::Rng rng(0xC0DE);
  // (na, nb) pairs bracketing each heuristic boundary, including ragged
  // non-multiple-of-vector-width sizes.
  const std::size_t cases[][2] = {
      {15, 15},   {16, 16},     {17, 31},    {16, 799},  {16, 800},
      {16, 801},  {4, 3996},    {4, 4000},   {4, 4100},  {1, 1000},
      {2, 2001},  {63, 64},     {65, 129},   {128, 128}, {100, 5000},
      {3, 2999},  {5, 5001},    {33, 1650},  {7, 7007},
  };
  for (const auto& c : cases) {
    // ~50% overlap: draw the union, deal halves.
    const std::size_t na = c[0], nb = c[1];
    std::vector<std::uint64_t> a = make_canonical(rng, na, 40);
    std::vector<std::uint64_t> b = make_canonical(rng, nb, 40);
    // Plant shared elements from a into b, keeping b canonical.
    for (std::size_t i = 0; i < na / 2; ++i) b.push_back(a[2 * i]);
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    check_intersection(a, b, "straddle");
    check_intersection(b, a, "straddle-swapped");
  }
}

TEST(SimdIntersect, RandomizedDifferential) {
  util::Rng rng(0xD1FF);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t na = rng.below(260);
    const std::size_t nb = rng.below(2600);
    const std::uint64_t gap = 1 + rng.below(30);
    std::vector<std::uint64_t> a = make_canonical(rng, na, gap);
    std::vector<std::uint64_t> b = make_canonical(rng, nb, gap);
    check_intersection(a, b, "random");
  }
}

TEST(SimdIntersect, RejectsUnderSizedOutput) {
  const std::vector<std::uint64_t> a{1, 2, 3, 4};
  const std::vector<std::uint64_t> b{2, 3};
  // Needs min(na, nb) + padding = 2 + 8.
  std::vector<std::uint64_t> out(9);
  EXPECT_THROW(simd::intersect_sorted(a, b, out), std::invalid_argument);
  out.resize(10);
  EXPECT_EQ(simd::intersect_sorted(a, b, out), 2u);
}

// ---------- bitmap kernels ----------

TEST(SimdBitmap, AndCountMatchesReferenceAcrossTiers) {
  util::Rng rng(0xB175);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = rng.below(131);  // straddles all vector widths
    std::vector<std::uint64_t> a(n), b(n), out(n);
    for (auto& x : a) x = rng.next();
    for (auto& x : b) x = rng.next();
    std::uint64_t want = 0;
    for (std::size_t i = 0; i < n; ++i) {
      want += static_cast<std::uint64_t>(__builtin_popcountll(a[i] & b[i]));
    }
    for (Tier tier : all_tiers()) {
      simd::ScopedTierOverride forced(tier);
      ASSERT_EQ(simd::bitmap_and_count(a, b), want)
          << "tier=" << simd::tier_name(tier) << " n=" << n;
      simd::bitmap_and(a, b, out);
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], a[i] & b[i]);
    }
  }
}

TEST(SimdBitmap, RejectsMismatchedLengths) {
  const std::vector<std::uint64_t> a(4), b(5);
  std::vector<std::uint64_t> out(5);
  EXPECT_THROW(simd::bitmap_and_count(a, b), std::invalid_argument);
  EXPECT_THROW(simd::bitmap_and(a, b, out), std::invalid_argument);
}

// ---------- end to end: transcripts are tier-invariant ----------

// The golden/digest suites pin transcripts at the dispatched tier; this
// test closes the loop by running a full protocol under EVERY forced tier
// in one process and requiring identical bits, rounds, and digests.
TEST(SimdEndToEnd, BucketEqTranscriptIdenticalUnderAllTiers) {
  util::Rng wrng(424242);
  const util::SetPair p =
      util::random_set_pair(wrng, std::uint64_t{1} << 22, 256, 128);

  struct RunSummary {
    std::uint64_t bits, rounds, digest;
    util::Set alice;
  };
  auto run_once = [&]() {
    sim::Channel ch(/*record_transcript=*/true);
    sim::SharedRandomness sh(31337);
    const auto out = core::bucket_eq_intersection(
        ch, sh, /*nonce=*/7, std::uint64_t{1} << 22, p.s, p.t, /*strength=*/3);
    return RunSummary{ch.cost().bits_total, ch.cost().rounds,
                      ch.transcript()->digest(), out.alice};
  };

  std::vector<RunSummary> runs;
  for (Tier tier : all_tiers()) {
    simd::ScopedTierOverride forced(tier);
    runs.push_back(run_once());
    EXPECT_EQ(runs.back().alice, p.expected_intersection)
        << "tier=" << simd::tier_name(tier);
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].bits, runs[0].bits);
    EXPECT_EQ(runs[i].rounds, runs[0].rounds);
    EXPECT_EQ(runs[i].digest, runs[0].digest);
  }
}

}  // namespace
}  // namespace setint
