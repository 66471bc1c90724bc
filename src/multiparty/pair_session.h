// The pairwise-session path shared by coordinator_intersection and
// tournament_intersection.
//
// Both multiparty variants run many two-party sessions per call and wrap
// each one in the same machinery: the fault/chaos/limit environment
// resolved once per call, a dead-player / admission / breaker gate in
// front of every pair, the Byzantine player bound to its channel role,
// the certified session (verified_two_party_intersection) billed into the
// network's open batch, and honest degradation accounting. PairSessions
// owns that machinery. Each caller keeps only what is its own: the
// coordinator's accumulator, the tournament's bracket and its
// uncertified matches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "multiparty/coordinator.h"

namespace setint::multiparty {

// Content-damaging events so far across the three hostile sources: fault
// plan flips/truncations/drops, adversary-crafted frames and chaos-plan
// content events. Null sources count zero. An exchange that decoded
// cleanly is trusted only if this total did not move during it.
std::uint64_t content_events(const sim::FaultPlan* faults,
                             const sim::Adversary* adversary,
                             const sim::ChaosPlan* chaos);

class PairSessions {
 public:
  // Validates `sets` (one per network player, each inside [universe)) and
  // derives k = params.k_bound, or the largest set when that is 0, and at
  // least 2. `who` prefixes the players/sets mismatch error. Sizes
  // result.per_player_degraded. `shared`, `params` and `result` must
  // outlive this object.
  PairSessions(sim::Network& network, const sim::SharedRandomness& shared,
               std::uint64_t universe, const std::vector<util::Set>& sets,
               const MultipartyParams& params, MultipartyResult& result,
               const char* who);
  PairSessions(const PairSessions&) = delete;
  PairSessions& operator=(const PairSessions&) = delete;

  std::size_t k() const { return k_; }
  sim::FaultPlan* faults() const { return faults_; }
  sim::ChaosPlan* chaos() const { return chaos_; }  // null unless enabled
  const core::ResourceLimits* limits() const {
    return params_.limits.enabled() ? &params_.limits : nullptr;
  }
  core::RetryBudgetPool& pool() { return pool_; }

  // The dead-player, admission and breaker gates for pair (a, b), in that
  // order, before the pair spends a bit. Returns false when one turned the
  // pair away; the skip is already accounted (charge_degraded plus the
  // gate's own counter), and the caller leaves its own state untouched,
  // which keeps its answer a superset of the m-way intersection.
  bool admit(std::size_t a, std::size_t b, std::uint64_t nonce);

  // The breaker of link {a, b}, or null when breakers are off.
  core::CircuitBreaker* breaker(std::size_t a, std::size_t b);

  // The adversary, rebound to the channel role the Byzantine player holds
  // in pair (a, b) (a is Alice), or null for a pair of honest players.
  sim::Adversary* bind_adversary(std::size_t a, std::size_t b);

  // One certified session between admitted players a (Alice) and b,
  // billed into the network's open batch and accounted. A refused result
  // carries no answer: the caller must not intersect it in.
  VerifiedRunResult certified(std::uint64_t nonce, util::SetView s,
                              util::SetView t, std::size_t a, std::size_t b);

  // Accounts one pair whose answer was lost or weakened: degraded_pairs,
  // the degraded flag, both players' per_player_degraded and
  // mp.degraded_pairs.
  void charge_degraded(std::size_t a, std::size_t b);

  // Folds the run-wide governance totals into the result.
  void finish();

 private:
  sim::Network& network_;
  obs::Tracer* tracer_;
  const sim::SharedRandomness& shared_;
  const std::uint64_t universe_;
  const MultipartyParams& params_;
  MultipartyResult& result_;
  std::size_t k_;
  sim::FaultPlan* faults_;
  sim::ChaosPlan* chaos_;
  // Overload governance shared by every pair of the run: one retry-token
  // pool, one breaker per link (persisting across levels, so evidence
  // about a dead link accumulates) and a deterministic admission
  // controller shedding sessions when the pool runs critical.
  core::RetryBudgetPool pool_;
  core::BreakerBoard breakers_;
  core::AdmissionController admission_;
};

}  // namespace setint::multiparty
