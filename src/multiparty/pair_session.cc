#include "multiparty/pair_session.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace setint::multiparty {

std::uint64_t content_events(const sim::FaultPlan* faults,
                             const sim::Adversary* adversary,
                             const sim::ChaosPlan* chaos) {
  std::uint64_t events = 0;
  if (faults != nullptr) {
    const sim::FaultStats& st = faults->stats();
    events += st.bits_flipped + st.truncated_bits + st.dropped_messages;
  }
  if (adversary != nullptr) events += adversary->stats().frames_crafted;
  if (chaos != nullptr) events += chaos->stats().content_events;
  return events;
}

PairSessions::PairSessions(sim::Network& network,
                           const sim::SharedRandomness& shared,
                           std::uint64_t universe,
                           const std::vector<util::Set>& sets,
                           const MultipartyParams& params,
                           MultipartyResult& result, const char* who)
    : network_(network),
      tracer_(network.tracer()),
      shared_(shared),
      universe_(universe),
      params_(params),
      result_(result),
      k_(params.k_bound),
      faults_(params.fault_plan != nullptr ? params.fault_plan
                                           : network.fault_plan()),
      chaos_(params.chaos != nullptr ? params.chaos : network.chaos_plan()),
      pool_(params.retry_pool_attempts),
      breakers_(params.breaker),
      admission_(params.admission, &pool_) {
  if (sets.size() != network.players()) {
    throw std::invalid_argument(std::string(who) + ": players/sets mismatch");
  }
  for (const util::Set& s : sets) {
    util::validate_set(s, universe);
    if (params.k_bound == 0) k_ = std::max(k_, s.size());
  }
  k_ = std::max<std::size_t>(k_, 2);
  if (chaos_ != nullptr && !chaos_->enabled()) chaos_ = nullptr;
  result_.per_player_degraded.assign(sets.size(), 0);
}

bool PairSessions::admit(std::size_t a, std::size_t b, std::uint64_t nonce) {
  // A permanently dead player cannot run its pairwise session at all.
  if (chaos_ != nullptr && (chaos_->player_dead(a) || chaos_->player_dead(b))) {
    result_.dead_player_skips += 1;
    charge_degraded(a, b);
    obs::count(tracer_, "chaos.dead_player_skips");
    return false;
  }
  // Admission control: under critical pool pressure, shed the session
  // before it spends anything. The seeded-priority decision is a pure
  // function of (admission seed, pair nonce, pool level), so identical
  // runs shed identical pairs.
  if (!admission_.admit(nonce)) {
    result_.shed_pairs += 1;
    charge_degraded(a, b);
    obs::count(tracer_, "budget.shed");
    return false;
  }
  // Circuit-breaker gate: a link whose breaker is open goes straight to
  // degradation, and the pool keeps its tokens.
  core::CircuitBreaker* link = breaker(a, b);
  if (link != nullptr && !link->allow()) {
    result_.breaker_short_circuits += 1;
    charge_degraded(a, b);
    obs::count(tracer_, "breaker.short_circuits");
    return false;
  }
  return true;
}

core::CircuitBreaker* PairSessions::breaker(std::size_t a, std::size_t b) {
  return breakers_.enabled() ? &breakers_.link(a, b) : nullptr;
}

sim::Adversary* PairSessions::bind_adversary(std::size_t a, std::size_t b) {
  sim::Adversary* adversary = params_.adversary;
  if (adversary == nullptr) return nullptr;
  if (a == params_.byzantine_player) {
    adversary->set_party(sim::PartyId::kAlice);
  } else if (b == params_.byzantine_player) {
    adversary->set_party(sim::PartyId::kBob);
  } else {
    return nullptr;
  }
  obs::count(tracer_, "mp.byzantine_pairs");
  return adversary;
}

VerifiedRunResult PairSessions::certified(std::uint64_t nonce,
                                          util::SetView s, util::SetView t,
                                          std::size_t a, std::size_t b) {
  // The session's own channel runs untraced: attribution happens once, at
  // the network billing layer, so bits are not double-counted.
  SessionHooks hooks;
  hooks.faults = faults_;
  hooks.adversary = bind_adversary(a, b);
  hooks.limits = limits();
  hooks.chaos = chaos_;
  hooks.player_a = a;
  hooks.player_b = b;
  hooks.checkpoint = params_.checkpoint;
  hooks.budget = params_.budget;
  hooks.retry_pool = pool_.enabled() ? &pool_ : nullptr;
  hooks.breaker = breaker(a, b);
  VerifiedRunResult vr = verified_two_party_intersection(
      shared_, nonce, universe_, s, t, params_.tree, k_, params_.retry, hooks);
  network_.bill_pairwise_in_batch(a, b, vr.cost);
  result_.total_repetitions += vr.repetitions;
  result_.total_restarts += vr.restarts;
  result_.total_bits_replayed += vr.bits_replayed;
  obs::count(tracer_, "mp.pairwise_runs");
  obs::count(tracer_, "mp.repetitions", vr.repetitions);
  if (vr.refused) {
    result_.refused_pairs += 1;
    obs::count(tracer_, "budget.refused_pairs");
  }
  // A degraded answer is still a superset of the pair's intersection,
  // hence of the m-way one; a refusal carries no answer at all. Both
  // weaken the final result.
  if (vr.degraded || vr.refused) charge_degraded(a, b);
  return vr;
}

void PairSessions::charge_degraded(std::size_t a, std::size_t b) {
  result_.degraded_pairs += 1;
  result_.degraded = true;
  // Honest accounting: BOTH endpoints are charged, so no player's loss is
  // hidden.
  result_.per_player_degraded[a] += 1;
  result_.per_player_degraded[b] += 1;
  obs::count(tracer_, "mp.degraded_pairs");
}

void PairSessions::finish() {
  result_.pool_retry_denials = pool_.denials();
  result_.breaker_opens = breakers_.total_opens();
  if (pool_.enabled()) {
    obs::count(tracer_, "budget.pool_spent", pool_.spent());
  }
}

}  // namespace setint::multiparty
