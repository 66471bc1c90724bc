// Tests for the protocol planner: cost-model accuracy (within 2x of
// measured), budget handling, and end-to-end plan execution.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/planner.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

double measured_bits(const core::Plan& plan, std::uint64_t universe,
                     std::size_t k) {
  util::Rng wrng(k + plan.rounds_r);
  const util::SetPair p = util::random_set_pair(wrng, universe, k, k / 2);
  const auto proto = core::instantiate(plan);
  const core::RunResult r = proto->run(7, universe, p.s, p.t);
  return static_cast<double>(r.cost.bits_total);
}

TEST(Planner, EstimatesWithinFactorTwoOfMeasurement) {
  for (std::size_t k : {256u, 4096u, 32768u}) {
    for (std::uint64_t log_n : {24u, 40u}) {
      core::PlannerQuery query;
      query.universe = std::uint64_t{1} << log_n;
      query.k = k;
      for (const core::Plan& plan : core::enumerate_plans(query)) {
        const double measured = measured_bits(plan, query.universe, k);
        EXPECT_LT(plan.estimated_bits, measured * 2.0)
            << plan.description << " k=" << k << " n=2^" << log_n;
        EXPECT_GT(plan.estimated_bits, measured / 2.0)
            << plan.description << " k=" << k << " n=2^" << log_n;
      }
    }
  }
}

TEST(Planner, PicksDeterministicForSmallUniverses) {
  core::PlannerQuery query;
  query.universe = 1u << 16;
  query.k = 4096;  // n/k = 16: shipping the set costs ~6 bits/element
  const core::Plan plan = core::choose_plan(query);
  EXPECT_EQ(plan.kind, core::PlanKind::kDeterministicExchange);
}

TEST(Planner, PicksRandomizedForHugeUniverses) {
  core::PlannerQuery query;
  query.universe = std::uint64_t{1} << 60;
  query.k = 4096;
  const core::Plan plan = core::choose_plan(query);
  EXPECT_NE(plan.kind, core::PlanKind::kDeterministicExchange);
}

TEST(Planner, RespectsRoundBudget) {
  core::PlannerQuery query;
  query.universe = std::uint64_t{1} << 60;
  query.k = 4096;
  query.round_budget = 2;
  const core::Plan plan = core::choose_plan(query);
  EXPECT_LE(plan.estimated_rounds, 2u);
  // With only 2 rounds, the options are deterministic or one-round hash.
  EXPECT_TRUE(plan.kind == core::PlanKind::kDeterministicExchange ||
              plan.kind == core::PlanKind::kOneRoundHash);
}

TEST(Planner, UnlimitedBudgetOffersEverything) {
  core::PlannerQuery query;
  query.universe = 1u << 30;
  query.k = 1024;
  const auto plans = core::enumerate_plans(query);
  EXPECT_GE(plans.size(), 5u);
  // Sorted by estimated bits.
  for (std::size_t i = 1; i < plans.size(); ++i) {
    EXPECT_LE(plans[i - 1].estimated_bits, plans[i].estimated_bits);
  }
}

TEST(Planner, ChosenPlanRunsAndIsExact) {
  for (std::uint64_t log_n : {16u, 30u, 50u}) {
    core::PlannerQuery query;
    query.universe = std::uint64_t{1} << log_n;
    query.k = 512;
    const core::Plan plan = core::choose_plan(query);
    util::Rng wrng(log_n);
    const util::SetPair p =
        util::random_set_pair(wrng, query.universe, query.k, query.k / 2);
    const auto proto = core::instantiate(plan);
    const core::RunResult r = proto->run(3, query.universe, p.s, p.t);
    EXPECT_EQ(r.output.alice, p.expected_intersection) << plan.description;
  }
}

TEST(Planner, RejectsMalformedQueries) {
  EXPECT_THROW(core::choose_plan({}), std::invalid_argument);
  core::PlannerQuery impossible;
  impossible.universe = 1u << 20;
  impossible.k = 64;
  impossible.round_budget = 1;  // nothing finishes in one round
  EXPECT_THROW(core::choose_plan(impossible), std::invalid_argument);
}

TEST(Planner, PlansCarryTheDispatchedKernelTier) {
  core::PlannerQuery query;
  query.universe = std::uint64_t{1} << 24;
  query.k = 4096;
  for (const core::Plan& plan : core::enumerate_plans(query)) {
    EXPECT_EQ(plan.kernel_tier, simd::active_tier()) << plan.description;
    EXPECT_GT(plan.estimated_local_ns, 0.0) << plan.description;
  }
}

TEST(Planner, LocalCostKnowsTheKernelTier) {
  core::PlannerQuery query;
  query.universe = std::uint64_t{1} << 24;
  query.k = 4096;
  for (const core::PlanKind kind :
       {core::PlanKind::kDeterministicExchange, core::PlanKind::kOneRoundHash,
        core::PlanKind::kToyBuckets, core::PlanKind::kBucketEq,
        core::PlanKind::kVerificationTree}) {
    const double scalar_ns =
        core::estimate_local_ns(kind, query, /*rounds_r=*/3,
                                simd::Tier::kScalar);
    const double avx2_ns =
        core::estimate_local_ns(kind, query, 3, simd::Tier::kAvx2);
    // A wider tier is never priced higher.
    EXPECT_GE(scalar_ns, avx2_ns) << static_cast<int>(kind);
    // The intersection-bearing protocols genuinely get cheaper on AVX2;
    // hashing is scalar code on both tiers, so purely hash-bound kinds
    // price the same on either.
    if (kind == core::PlanKind::kBucketEq ||
        kind == core::PlanKind::kVerificationTree) {
      EXPECT_EQ(scalar_ns, avx2_ns) << static_cast<int>(kind);
    } else {
      EXPECT_GT(scalar_ns, avx2_ns) << static_cast<int>(kind);
    }
  }
}

TEST(Planner, KernelTierBreaksBitTies) {
  // estimate_local_ns is part of the sort key (after bits): the ordering
  // produced by enumerate_plans must be non-decreasing in bits, and
  // within equal bits non-decreasing in local cost.
  core::PlannerQuery query;
  query.universe = std::uint64_t{1} << 30;
  query.k = 1024;
  const auto plans = core::enumerate_plans(query);
  for (std::size_t i = 1; i < plans.size(); ++i) {
    const bool bits_ordered =
        plans[i - 1].estimated_bits < plans[i].estimated_bits;
    const bool tie_ordered =
        plans[i - 1].estimated_bits == plans[i].estimated_bits &&
        plans[i - 1].estimated_local_ns <= plans[i].estimated_local_ns;
    EXPECT_TRUE(bits_ordered || tie_ordered) << i;
  }
}

}  // namespace
}  // namespace setint
