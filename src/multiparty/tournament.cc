#include "multiparty/tournament.h"

#include <algorithm>

#include "multiparty/pair_session.h"
#include "obs/tracer.h"
#include "sim/channel.h"
#include "util/rng.h"

namespace setint::multiparty {

namespace {

// One bracket level of one group's tournament. Matches are billed into the
// surrounding network batch (all groups advance their brackets in the same
// batch, so rounds reflect network-wide parallelism). Returns the players
// advancing to the next bracket level.
//
// Non-final matches are uncertified, so under an active fault plan a
// corrupted match could silently break the candidates-are-supersets
// invariant the root certificate relies on. Guard: any match whose
// exchange was fault-touched (or threw) is discarded and retried with
// fresh randomness; if the retry budget runs out the match is SKIPPED —
// the left player advances with its set unchanged, which keeps every
// carried set a superset of the true intersection at the price of a
// degraded (possibly strict-superset) final answer.
std::vector<std::size_t> advance_bracket(
    sim::Network& network, const sim::SharedRandomness& shared,
    std::uint64_t universe, std::vector<util::Set>& current,
    const std::vector<std::size_t>& level,
    const MultipartyParams& params, std::uint64_t level_nonce,
    PairSessions& pairs) {
  std::vector<std::size_t> next;
  obs::Tracer* tracer = network.tracer();
  sim::FaultPlan* faults = pairs.faults();
  sim::ChaosPlan* chaos = pairs.chaos();
  const bool final_level = level.size() == 2;
  for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
    const std::size_t left = level[i];
    const std::size_t right = level[i + 1];
    next.push_back(left);
    const std::uint64_t nonce =
        util::mix64(level_nonce, util::mix64(left, right));
    // A match turned away is skipped: left advances unchanged, preserving
    // the carried-superset invariant.
    if (!pairs.admit(left, right, nonce)) {
      obs::count(tracer, "mp.skipped_matches");
      continue;
    }
    if (final_level) {
      // Root match: certified — exactness for the whole bracket follows
      // from the subset/superset invariants (see header). A refused final
      // match carries left's set up unchanged (still a superset) — the
      // refusal's empty answer must not be intersected in.
      VerifiedRunResult vr = pairs.certified(nonce, current[left],
                                             current[right], left, right);
      if (!vr.refused) current[left] = std::move(vr.intersection);
      continue;
    }
    sim::Adversary* match_adversary = pairs.bind_adversary(left, right);
    core::CircuitBreaker* match_breaker = pairs.breaker(left, right);
    // The per-match attempt budget, taken literally: 0 attempts means the
    // match is skipped outright (honest degradation), mirroring the
    // certified-session semantics.
    bool advanced = false;
    for (std::uint64_t attempt = 0;
         attempt < params.retry.max_attempts && !advanced; ++attempt) {
      if (match_breaker != nullptr && !match_breaker->allow()) {
        obs::count(tracer, "breaker.denials");
        break;
      }
      if (attempt > 0 && pairs.pool().enabled() &&
          !pairs.pool().try_acquire()) {
        obs::count(tracer, "budget.pool_denials");
        break;
      }
      sim::Channel channel;
      channel.set_fault_plan(faults);
      channel.set_adversary(match_adversary);
      channel.set_limits(pairs.limits());
      // Crash/partition blocks in an uncertified match surface as plain
      // exceptions below: the attempt burns and the match may end up
      // skipped — honest degradation without a per-match recovery loop.
      if (chaos != nullptr) channel.set_chaos(chaos, left, right);
      // Duplicates and delays cost bandwidth but never corrupt content,
      // so only content-damaging events disqualify the match (the
      // channel's integrity framing throws on most of them; this snapshot
      // closes the checksum-collision window). Crafted frames and chaos
      // corruption disqualify it too: a semantic lie decodes cleanly but
      // can knock true elements out of the candidates, and an uncertified
      // match has no certificate to catch that.
      const std::uint64_t before =
          content_events(faults, match_adversary, chaos);
      if (attempt > 0) obs::count(tracer, "retry.attempts");
      try {
        // Inside the try: the backoff charge can breach max_rounds when
        // limits are installed, which discards the attempt.
        if (attempt > 0) {
          const core::BackoffPolicy schedule{
              params.retry.backoff_rounds, params.retry.backoff_multiplier,
              params.retry.backoff_cap_rounds, params.retry.backoff_jitter};
          channel.charge_extra_rounds(
              core::backoff_rounds_for_attempt(schedule, nonce, attempt));
        }
        const core::IntersectionOutput out =
            core::verification_tree_intersection(
                channel, shared, util::mix64(nonce, attempt), universe,
                current[left], current[right], params.tree);
        network.bill_pairwise_in_batch(left, right, channel.cost());
        if (content_events(faults, match_adversary, chaos) == before) {
          current[left] = out.alice;
          current[right] = out.bob;
          advanced = true;
        }
        // Fault-touched: the traffic is billed, the suspect candidates
        // are discarded, and the match re-runs with a fresh nonce.
      } catch (const core::ResourceLimitError&) {
        network.bill_pairwise_in_batch(left, right, channel.cost());
        obs::count(tracer, "limit.breaches");
        obs::count(tracer, "retry.decode_failures");
      } catch (const std::exception&) {
        network.bill_pairwise_in_batch(left, right, channel.cost());
        obs::count(tracer, "retry.decode_failures");
      }
      if (match_breaker != nullptr) {
        if (advanced) {
          match_breaker->on_success();
        } else {
          const core::BreakerState prior = match_breaker->state();
          match_breaker->on_failure();
          if (prior != core::BreakerState::kOpen &&
              match_breaker->state() == core::BreakerState::kOpen) {
            obs::count(tracer, "breaker.opens");
          }
        }
      }
    }
    if (!advanced) {
      // Skipped match: left carries its set up unchanged (still a
      // superset); right's constraint is lost, so flag degradation.
      pairs.charge_degraded(left, right);
      obs::count(tracer, "mp.skipped_matches");
    }
  }
  if (level.size() % 2 == 1) next.push_back(level.back());
  return next;
}

}  // namespace

MultipartyResult tournament_intersection(sim::Network& network,
                                         const sim::SharedRandomness& shared,
                                         std::uint64_t universe,
                                         const std::vector<util::Set>& sets,
                                         const MultipartyParams& params) {
  MultipartyResult result;
  PairSessions pairs(network, shared, universe, sets, params, result,
                     "tournament");
  const std::size_t group_size = 2 * pairs.k();
  std::vector<std::size_t> active(sets.size());
  for (std::size_t i = 0; i < active.size(); ++i) active[i] = i;
  std::vector<util::Set> current = sets;

  // As in coordinator_intersection, attribution happens at the network
  // billing layer only.
  obs::Tracer* tracer = network.tracer();
  obs::Span protocol_span(tracer, "tournament");

  while (active.size() > 1) {
    obs::Span level_span(tracer, "level=" + std::to_string(result.levels));
    // Partition active players into groups; every group runs its bracket
    // level-synchronously so that matches across ALL groups share batches.
    std::vector<std::vector<std::size_t>> brackets;
    for (std::size_t lo = 0; lo < active.size(); lo += group_size) {
      const std::size_t hi = std::min(lo + group_size, active.size());
      brackets.emplace_back(active.begin() + static_cast<std::ptrdiff_t>(lo),
                            active.begin() + static_cast<std::ptrdiff_t>(hi));
    }
    std::uint64_t depth = 0;
    while (std::any_of(brackets.begin(), brackets.end(),
                       [](const auto& b) { return b.size() > 1; })) {
      network.begin_batch();
      for (auto& bracket : brackets) {
        if (bracket.size() <= 1) continue;
        const std::uint64_t level_nonce = util::mix64(
            0x7031, util::mix64(result.levels, util::mix64(depth, bracket[0])));
        bracket = advance_bracket(network, shared, universe, current,
                                  bracket, params, level_nonce, pairs);
      }
      network.end_batch();
      ++depth;
    }
    std::vector<std::size_t> winners;
    winners.reserve(brackets.size());
    for (const auto& bracket : brackets) winners.push_back(bracket[0]);
    active = std::move(winners);
    result.levels += 1;
  }
  pairs.finish();
  result.intersection = current[active[0]];
  return result;
}

}  // namespace setint::multiparty
