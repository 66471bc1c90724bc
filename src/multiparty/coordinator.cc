#include "multiparty/coordinator.h"

#include <algorithm>
#include <stdexcept>

#include "core/basic_intersection.h"
#include "core/checkpoint.h"
#include "core/deterministic_exchange.h"
#include "core/protocol.h"
#include "eq/equality.h"
#include "multiparty/pair_session.h"
#include "obs/recorder.h"
#include "sim/channel.h"
#include "util/bitio.h"
#include "util/rng.h"

namespace setint::multiparty {

VerifiedRunResult verified_two_party_intersection(
    const sim::SharedRandomness& shared, std::uint64_t nonce,
    std::uint64_t universe, util::SetView s, util::SetView t,
    const core::VerificationTreeParams& params, std::size_t k_bound,
    const core::RetryPolicy& retry, const SessionHooks& hooks) {
  // Once, up front: inside the attempt loop a non-canonical input would
  // look like a decode failure, burn every attempt, and on a hostile link
  // come back as a "degraded" answer instead of an error.
  core::validate_instance(universe, s, t);
  if (k_bound == 0) k_bound = std::max<std::size_t>({s.size(), t.size(), 2});
  obs::Tracer* tracer = hooks.tracer;
  obs::FlightRecorder* recorder = hooks.recorder;
  sim::ChaosPlan* chaos =
      hooks.chaos != nullptr && hooks.chaos->enabled() ? hooks.chaos : nullptr;
  core::CircuitBreaker* breaker =
      hooks.breaker != nullptr && hooks.breaker->policy().enabled()
          ? hooks.breaker
          : nullptr;

  sim::Channel channel;
  channel.set_tracer(tracer);
  channel.set_recorder(recorder);
  channel.set_fault_plan(hooks.faults);
  channel.set_adversary(hooks.adversary);
  if (hooks.limits != nullptr && hooks.limits->enabled()) {
    channel.set_limits(hooks.limits);
  }
  if (chaos != nullptr) {
    channel.set_chaos(chaos, hooks.player_a, hooks.player_b);
  }
  obs::Span span(tracer, "verified_intersection");
  // Session budget (core/budget.h): reads the channel's monotonic cost
  // counter, so bits replayed after a checkpoint resume are charged
  // exactly once — the channel meters them once. The chaos plan, when
  // installed, is the deadline clock.
  core::SessionBudget budget(hooks.budget, &channel.cost(), chaos);
  const bool budget_enabled = hooks.budget.enabled();
  // Phase-boundary checkpoint store, shared by every attempt. It earns its
  // keep under chaos — iid faults corrupt single messages (the retry loop
  // is the right tool), while crash/partition blocks lose whole
  // half-finished sessions that a snapshot can rescue — and under a
  // budget, whose cooperative enforcement points are exactly these
  // boundaries (Checkpoint::set_budget).
  core::Checkpoint ckpt_store;
  core::Checkpoint* ckpt =
      (chaos != nullptr || budget_enabled) && hooks.checkpoint ? &ckpt_store
                                                               : nullptr;
  if (ckpt != nullptr && budget_enabled) ckpt->set_budget(&budget);

  VerifiedRunResult result;
  result.repetitions = 0;
  std::uint64_t restarts_used = 0;
  std::uint64_t attempt_start_bits = 0;
  bool breaker_denied = false;

  const auto finish = [&] {
    result.cost = channel.cost();
    result.budget_reason = budget.reason();
    if (ckpt != nullptr) {
      obs::count(tracer, "checkpoint.snapshots", ckpt->snapshots());
      obs::count(tracer, "checkpoint.restores", ckpt->restores());
    }
    if (budget_enabled) obs::count(tracer, "budget.checks", budget.checks());
  };

  // Waits out one crash/partition block: charges the outage as latency
  // rounds and advances the chaos clock past it. Returns false when the
  // peer should be declared lost instead (budget or wait cap exhausted, or
  // the wait itself breaches the round limit).
  const auto wait_out_block = [&](std::uint64_t resume_tick,
                                  const char* what) {
    // Bits sent since the last phase boundary — or since the attempt
    // began, when no snapshot exists yet — are lost and will be re-sent.
    const std::uint64_t boundary = ckpt != nullptr && !ckpt->empty()
                                       ? ckpt->bits_at_boundary()
                                       : attempt_start_bits;
    const std::uint64_t lost = channel.cost().bits_total - boundary;
    result.bits_replayed += lost;
    obs::count(tracer, "checkpoint.bits_replayed", lost);
    restarts_used += 1;
    if (restarts_used > retry.max_restarts) return false;
    const std::uint64_t now = chaos->now();
    const std::uint64_t wait = resume_tick > now ? resume_tick - now : 1;
    if (wait > retry.max_resume_wait_rounds) return false;
    try {
      channel.charge_extra_rounds(wait);
    } catch (const core::ResourceLimitError&) {
      obs::count(tracer, "limit.breaches");
      return false;
    }
    chaos->advance_to(resume_tick);
    result.restarts += 1;
    obs::count(tracer, "chaos.restarts");
    if (recorder != nullptr) {
      recorder->record(obs::FlightEventKind::kRestart, what, -1, wait,
                       channel.cost().bits_total);
    }
    return true;
  };

  // The per-session attempt budget, taken literally: 0 means no certified
  // attempt at all — straight to the backstop (reliable transport) or the
  // degradation ladder (hostile).
  for (std::uint64_t rep = 0; rep < retry.max_attempts && !result.peer_lost &&
                              !budget.exhausted();
       ++rep) {
    if (breaker != nullptr && !breaker->allow()) {
      // Open breaker: the accumulated evidence says this link is dead —
      // stop burning attempts (and pool tokens) and take the ladder.
      breaker_denied = true;
      obs::count(tracer, "breaker.denials");
      break;
    }
    if (rep > 0 && hooks.retry_pool != nullptr &&
        !hooks.retry_pool->try_acquire()) {
      // The shared retry pool is dry: no more re-attempts for anyone;
      // this session keeps its answer obligation via the ladder.
      budget.mark_exhausted(core::BudgetDimension::kPool);
      obs::count(tracer, "budget.pool_denials");
      break;
    }
    result.repetitions = rep + 1;
    attempt_start_bits = channel.cost().bits_total;
    // Attempts draw fresh randomness, so a snapshot from a previous
    // attempt describes a transcript that no longer exists.
    if (ckpt != nullptr) ckpt->clear();
    if (rep > 0) {
      obs::count(tracer, "retry.attempts");
      if (recorder != nullptr) {
        recorder->record(obs::FlightEventKind::kRetry,
                         "attempt " + std::to_string(rep + 1));
      }
    }
    bool backoff_due = rep > 0;
    // Inner recovery loop: a crash or partition inside the attempt is
    // waited out and the attempt resumes — from its last phase checkpoint
    // when one is installed, from scratch otherwise — under the SAME
    // nonce, so the replayed transcript is deterministic.
    bool attempt_live = true;
    while (attempt_live) {
      try {
        // Inside the try: with limits installed the backoff charge itself
        // can breach max_rounds, which burns the attempt like any failure.
        if (backoff_due) {
          backoff_due = false;
          const core::BackoffPolicy schedule{
              retry.backoff_rounds, retry.backoff_multiplier,
              retry.backoff_cap_rounds, retry.backoff_jitter};
          channel.charge_extra_rounds(
              core::backoff_rounds_for_attempt(schedule, nonce, rep));
        }
        // Between-attempt budget enforcement point (phase boundaries
        // inside the attempt are covered by the checkpoint hook).
        if (budget_enabled) budget.check();
        const core::IntersectionOutput out =
            core::verification_tree_intersection(
                channel, shared, util::mix64(nonce, rep), universe, s, t,
                params, /*diag=*/nullptr, ckpt);
        // 2k-bit certificate (Section 4): candidates are subsets of the
        // inputs and supersets of the intersection, so equality implies
        // exactness.
        util::BitBuffer ca;
        util::append_set(ca, out.alice);
        util::BitBuffer cb;
        util::append_set(cb, out.bob);
        obs::Span certificate_span(tracer, "certificate");
        const bool certified = eq::equality_test(
            channel, shared, util::mix64(nonce, util::mix64(0xCE27, rep)), ca,
            cb, 2 * k_bound);
        if (certified) {
          obs::count(tracer, "mp.verified_runs");
          obs::count(tracer, "mp.repetitions", result.repetitions);
          if (ckpt != nullptr && ckpt->restores() > 0) {
            obs::count(tracer, "checkpoint.resume_successes");
          }
          if (breaker != nullptr) {
            const core::BreakerState before = breaker->state();
            breaker->on_success();
            if (before != core::BreakerState::kClosed &&
                breaker->state() == core::BreakerState::kClosed) {
              obs::count(tracer, "breaker.closes");
            }
          }
          result.intersection = out.alice;
          finish();
          return result;
        }
        attempt_live = false;  // failed certificate: fresh attempt
      } catch (const sim::PlayerCrashError& e) {
        obs::count(tracer, "chaos.crashes");
        if (e.permanent || !wait_out_block(e.revive_tick, "crash")) {
          result.peer_lost = true;
          break;
        }
        // Without a checkpoint the wait still happened (the link is only
        // usable again after the outage) but the attempt burns.
        if (ckpt == nullptr) attempt_live = false;
      } catch (const sim::LinkPartitionedError& e) {
        obs::count(tracer, "chaos.partitions");
        if (!wait_out_block(e.heal_tick, "partition")) {
          result.peer_lost = true;
          break;
        }
        if (ckpt == nullptr) attempt_live = false;
      } catch (const core::BudgetExhaustedError& e) {
        // A spending cap tripped at a phase boundary or between attempts.
        // The snapshot (if any) landed before the throw, so the boundary
        // loses nothing — but no further exact attempt can be afforded:
        // the sticky exhausted flag ends the outer loop and the run
        // descends the degradation ladder.
        obs::count(tracer, "budget.exhaustions");
        obs::count(tracer, std::string("budget.exhausted_") +
                               core::budget_dimension_name(e.dimension));
        if (recorder != nullptr) {
          recorder->record(obs::FlightEventKind::kBudgetExhausted,
                           core::budget_dimension_name(e.dimension), -1, 0,
                           channel.cost().bits_total);
        }
        attempt_live = false;
      } catch (const core::ResourceLimitError&) {
        // A frame or a decode blew past a resource cap — the signature
        // move of a Byzantine peer. Burn the attempt like any decode
        // failure (an unlucky honest run near the cap retries too).
        obs::count(tracer, "limit.breaches");
        obs::count(tracer, "retry.decode_failures");
        attempt_live = false;
      } catch (const std::exception&) {
        // A corrupted message failed to decode (the hardened decoders
        // throw on damaged length prefixes and short reads). Same remedy
        // as a failed certificate: fresh randomness, next attempt.
        obs::count(tracer, "retry.decode_failures");
        attempt_live = false;
      }
    }
    // Every exit from the inner loop without a certificate is one failed
    // attempt — feed the breaker so persistent link failure trips it.
    if (breaker != nullptr) {
      const core::BreakerState before = breaker->state();
      breaker->on_failure();
      if (before != core::BreakerState::kOpen &&
          breaker->state() == core::BreakerState::kOpen) {
        obs::count(tracer, "breaker.opens");
        if (recorder != nullptr) {
          recorder->record(obs::FlightEventKind::kBreakerOpen,
                           "link breaker open", -1, 0,
                           channel.cost().bits_total);
        }
      }
    }
  }

  // The deterministic backstop trusts every byte the peer sends, so it is
  // only sound against an unreliable-but-honest transport. A Byzantine
  // peer (enabled adversary) would simply lie to it; degrade instead. A
  // chaos plan counts as hostile too: the backstop has no recovery layer
  // of its own, so a mid-exchange crash would escape it.
  const bool hostile =
      (hooks.faults != nullptr && hooks.faults->enabled()) ||
      (hooks.adversary != nullptr && hooks.adversary->enabled()) ||
      chaos != nullptr;
  // An exhausted budget (or an open breaker) must not reach the backstop
  // either: the deterministic exchange costs Theta(k log(n/k)) bits the
  // session by definition can no longer afford.
  const bool overloaded = budget.exhausted() || breaker_denied;
  if (!hostile && !overloaded) {
    // Reliable channel: only hash collisions (or limit breaches) can get
    // here, and the deterministic backstop is exact.
    obs::count(tracer, "mp.backstops");
    if (recorder != nullptr) {
      recorder->record(obs::FlightEventKind::kBackstop,
                       "deterministic exchange");
    }
    try {
      const core::IntersectionOutput exact =
          core::deterministic_exchange(channel, universe, s, t);
      result.intersection = exact.alice;
      finish();
      return result;
    } catch (const core::ResourceLimitError&) {
      // Limits tight enough that even the deterministic exchange breaches
      // them: fall through to the degraded superset path rather than let
      // the error escape the retry layer.
      obs::count(tracer, "limit.breaches");
    }
  }

  // Graceful degradation: the retry budget is gone and the transport is
  // hostile, so no exact answer can be promised. Basic-Intersection
  // candidates are supersets of S cap T whenever the exchange arrives
  // intact (Lemma 3.3): the channel's integrity framing already turns
  // damaged frames into exceptions, and the content-fault snapshot below
  // closes the residual 2^-32 checksum-collision window (duplicates and
  // delays cost bandwidth but never corrupt content, so they don't
  // disqualify a run).
  result.verified = false;
  if (budget.exhausted() && hooks.budget.refuse_on_exhaustion) {
    // Bottom rung, by explicit request: a ResourceExhausted refusal
    // instead of a weak superset. Empty answer, flagged neither verified
    // nor degraded — `refused` is its own contract, and multiparty
    // callers must skip (not intersect) a refused pair to keep the
    // superset invariant.
    obs::count(tracer, "budget.refusals");
    if (recorder != nullptr) {
      recorder->record(obs::FlightEventKind::kBudgetExhausted, "refused");
      recorder->incident("refused: session budget exhausted");
    }
    result.refused = true;
    result.rung = core::DegradeRung::kRefused;
    result.intersection.clear();
    finish();
    return result;
  }

  obs::Span degraded_span(tracer, "degraded");
  obs::count(tracer, "degraded.runs");
  if (recorder != nullptr) {
    recorder->record(obs::FlightEventKind::kDegrade, "superset answer");
    recorder->incident(
        result.peer_lost ? "degraded: peer lost"
        : budget.exhausted()
            ? std::string("degraded: budget ") +
                  core::budget_dimension_name(budget.reason())
        : breaker_denied ? "degraded: breaker open"
                         : "degraded: retry budget exhausted");
  }
  result.degraded = true;
  // An attempt only counts as a clean superset if no hostile source
  // damaged content during it — a crafted frame that decodes cleanly can
  // still lie, and a lie can knock true elements out of the candidate (no
  // superset guarantee).
  //
  // A lost peer cannot answer Basic-Intersection either: go straight to
  // the input fallback instead of burning attempts against a dead link.
  // A blown deadline skips the middle rung for the same reason — the
  // Lemma-3.3 exchange takes rounds the clock no longer has — while bit,
  // round, attempt and pool exhaustion still afford the cheap superset.
  const bool past_deadline =
      budget.reason() == core::BudgetDimension::kDeadline;
  const std::uint64_t degraded_attempts =
      result.peer_lost || past_deadline
          ? 0
          : std::max<std::uint64_t>(1, retry.degraded_attempts);
  for (std::uint64_t d = 0; d < degraded_attempts; ++d) {
    const std::uint64_t before =
        content_events(hooks.faults, hooks.adversary, chaos);
    try {
      const core::CandidatePair cand = core::basic_intersection(
          channel, shared, util::mix64(nonce, util::mix64(0xDE64, d)),
          universe, s, t, /*target_failure=*/1.0 / 64.0);
      if (content_events(hooks.faults, hooks.adversary, chaos) == before) {
        obs::count(tracer, "degraded.clean_supersets");
        result.rung = core::DegradeRung::kFlaggedSuperset;
        result.intersection = cand.s_candidate;
        finish();
        return result;
      }
    } catch (const std::exception&) {
      // Fault-touched attempt; fall through to the next one.
    }
  }
  // Every degraded attempt was corrupted (or the peer is gone): the
  // caller's own input is the one superset that survives any fault rate.
  obs::count(tracer, "degraded.input_fallbacks");
  result.rung = core::DegradeRung::kInputFallback;
  result.intersection.assign(s.begin(), s.end());
  finish();
  return result;
}

MultipartyResult coordinator_intersection(sim::Network& network,
                                          const sim::SharedRandomness& shared,
                                          std::uint64_t universe,
                                          const std::vector<util::Set>& sets,
                                          const MultipartyParams& params) {
  MultipartyResult result;
  PairSessions pairs(network, shared, universe, sets, params, result,
                     "coordinator");
  const std::size_t group_size = 2 * pairs.k();
  std::vector<std::size_t> active(sets.size());
  for (std::size_t i = 0; i < active.size(); ++i) active[i] = i;
  std::vector<util::Set> current = sets;

  // Attribution happens once, at the network billing layer — the inner
  // two-party channels run untraced so bits are not double-counted.
  obs::Tracer* tracer = network.tracer();
  obs::Span protocol_span(tracer, "coordinator");

  while (active.size() > 1) {
    obs::Span level_span(tracer, "level=" + std::to_string(result.levels));
    std::vector<std::size_t> coordinators;
    network.begin_batch();
    for (std::size_t lo = 0; lo < active.size(); lo += group_size) {
      const std::size_t hi = std::min(lo + group_size, active.size());
      const std::size_t coord = active[lo];
      coordinators.push_back(coord);
      util::Set acc = current[coord];
      for (std::size_t j = lo + 1; j < hi; ++j) {
        const std::size_t member = active[j];
        const std::uint64_t nonce = util::mix64(
            util::mix64(result.levels, coord), util::mix64(member, 0xC0));
        // A pair turned away leaves the accumulator unchanged — still a
        // superset of the m-way intersection, honestly flagged.
        if (!pairs.admit(coord, member, nonce)) continue;
        const VerifiedRunResult vr =
            pairs.certified(nonce, current[coord], current[member], coord,
                            member);
        // A degraded answer is still a superset of coord-cap-member, so
        // intersecting it in keeps the one-sided invariant. A refused
        // session returned the EMPTY set by contract — intersecting that
        // in would destroy the invariant, so it is skipped like a gate.
        if (!vr.refused) {
          acc = util::set_intersection(acc, vr.intersection);
        }
      }
      current[coord] = std::move(acc);
    }
    network.end_batch();
    active = std::move(coordinators);
    result.levels += 1;
  }
  pairs.finish();

  result.intersection = current[active[0]];

  if (params.broadcast_result && network.players() > 1) {
    obs::Span broadcast_span(tracer, "broadcast");
    // The root coordinator ships the result to every other player in one
    // parallel round.
    util::BitBuffer encoded;
    util::append_set(encoded, result.intersection);
    const std::uint64_t bits = encoded.size_bits();
    const std::size_t root = active[0];
    network.begin_batch();
    for (std::size_t i = 0; i < network.players(); ++i) {
      if (i == root) continue;
      sim::CostStats one_message;
      one_message.bits_total = bits;
      one_message.bits_from_alice = bits;
      one_message.messages = 1;
      one_message.rounds = 1;
      network.bill_pairwise_in_batch(root, i, one_message);
      result.broadcast_bits += bits;
    }
    network.end_batch();
  }
  return result;
}

}  // namespace setint::multiparty
