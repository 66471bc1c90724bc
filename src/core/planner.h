// Protocol planner: which protocol should two servers actually run?
//
// The paper gives a family of protocols indexed by the round budget r;
// the right choice depends on (k, n, rounds available). The planner holds
// calibrated closed-form cost models for every protocol in the zoo and
// picks the cheapest plan that fits the round budget — the query-optimizer
// piece a deployment would sit on top of this library.
//
// Models are calibrated against the measured constants from EXPERIMENTS.md
// and are validated to within a factor of two by tests/planner_test.cc.
//
// Besides bits-on-the-wire, every plan carries a local-compute estimate
// that knows which SIMD kernel tier the process dispatched to (scalar /
// AVX2 — src/simd/dispatch.h): the same protocol costs measurably
// different CPU depending on whether the intersection oracle runs
// vectorized. Ties on bits break toward the cheaper local estimate. The
// dispatch ladder, kernel-selection heuristic, and the crossover table
// behind these constants are documented in docs/PERFORMANCE.md ("The
// SIMD dispatch ladder").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "simd/dispatch.h"

namespace setint::core {

enum class PlanKind {
  kDeterministicExchange,
  kOneRoundHash,
  kToyBuckets,
  kBucketEq,
  kVerificationTree,
};

struct Plan {
  PlanKind kind;
  int rounds_r = 0;            // tree stage count (kVerificationTree only)
  double estimated_bits = 0;   // expected total communication
  std::uint64_t estimated_rounds = 0;
  // Local-compute estimate for both parties combined, priced for
  // kernel_tier (the tier simd::active_tier() reported when the plan was
  // built). Coarse — it ranks plans and breaks bit ties, it is not a
  // profiler.
  double estimated_local_ns = 0;
  simd::Tier kernel_tier = simd::Tier::kScalar;
  std::string description;
};

struct PlannerQuery {
  std::uint64_t universe = 0;   // n
  std::size_t k = 0;            // size bound on both sets
  // Maximum rounds the deployment tolerates; 0 = unlimited.
  std::uint64_t round_budget = 0;
};

// Closed-form expected-cost estimate for one protocol configuration.
double estimate_bits(PlanKind kind, const PlannerQuery& query, int rounds_r);
std::uint64_t estimate_rounds(PlanKind kind, const PlannerQuery& query,
                              int rounds_r);

// Closed-form local-compute estimate (ns, both parties) priced for the
// given kernel tier: hashing substrate throughput and intersection-oracle
// throughput differ per tier (constants from the exp_cpu SIMD lane).
double estimate_local_ns(PlanKind kind, const PlannerQuery& query,
                         int rounds_r, simd::Tier tier);

// All candidate plans meeting the round budget, cheapest first.
std::vector<Plan> enumerate_plans(const PlannerQuery& query);

// The cheapest plan within budget; throws std::invalid_argument if the
// query is malformed or no plan fits (a 1-round budget, say).
Plan choose_plan(const PlannerQuery& query);

// Instantiate the chosen plan as a runnable protocol object.
std::unique_ptr<IntersectionProtocol> instantiate(const Plan& plan);

}  // namespace setint::core
