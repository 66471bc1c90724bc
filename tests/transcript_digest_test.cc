// Transcript-digest pins across the whole protocol zoo.
//
// tests/golden_test.cc pins three flagship runs at one reference instance;
// this suite extends the bit-identity net to EVERY core two-party protocol
// (one digest per protocol/config) and both multiparty variants. It exists
// so the hot-path compute engine (docs/PERFORMANCE.md) — batched hashing,
// flat CSR buckets, arena scratch — can keep evolving under a guarantee
// that it changes how bits are computed, never which bits are sent.
//
// The multiparty coordinator/tournament run their two-party sub-protocols
// on internal channels without transcript recording, so their pins are the
// network-level cost surface (total bits, rounds, max per-player bits)
// plus result exactness instead of a payload digest.
//
// If a pin moves because of a DELIBERATE protocol change, re-derive the
// constants (the failure message prints the new values) and say so in the
// change description.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>

#include "core/basic_intersection.h"
#include "core/budget.h"
#include "core/checkpoint.h"
#include "core/bucket_eq.h"
#include "core/deterministic_exchange.h"
#include "core/one_round_hash.h"
#include "core/private_coin.h"
#include "core/toy_protocol.h"
#include "core/verification_tree.h"
#include "multiparty/coordinator.h"
#include "multiparty/tournament.h"
#include "obs/recorder.h"
#include "obs/tracer.h"
#include "sim/channel.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/randomness.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

constexpr std::uint64_t kUniverse = std::uint64_t{1} << 22;

util::SetPair reference_pair() {
  util::Rng wrng(424242);
  return util::random_set_pair(wrng, kUniverse, 256, 128);
}

struct RunPin {
  std::uint64_t bits;
  std::uint64_t rounds;
  std::uint64_t digest;
};

void expect_pin(const sim::Channel& ch, const RunPin& pin) {
  EXPECT_EQ(ch.cost().bits_total, pin.bits);
  EXPECT_EQ(ch.cost().rounds, pin.rounds);
  EXPECT_EQ(ch.transcript()->digest(), pin.digest);
}

TEST(TranscriptDigest, DeterministicExchange) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  const auto out = core::deterministic_exchange(ch, kUniverse, p.s, p.t);
  EXPECT_EQ(out.alice, p.expected_intersection);
  expect_pin(ch, {6137u, 2u, 0xb642797fce970f57ull});
}

TEST(TranscriptDigest, OneRoundHash) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  sim::SharedRandomness sh(31337);
  const auto out = core::one_round_hash(ch, sh, 7, kUniverse, p.s, p.t);
  EXPECT_EQ(out.alice, p.expected_intersection);
  expect_pin(ch, {12322u, 2u, 0x36c9418be963de9dull});
}

TEST(TranscriptDigest, BucketEq) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  sim::SharedRandomness sh(31337);
  const auto out = core::bucket_eq_intersection(ch, sh, 7, kUniverse, p.s, p.t);
  EXPECT_EQ(out.alice, p.expected_intersection);
  expect_pin(ch, {4285u, 46u, 0x86c456de5495ada7ull});
}

TEST(TranscriptDigest, BasicIntersection) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  sim::SharedRandomness sh(31337);
  const auto cand =
      core::basic_intersection(ch, sh, 7, kUniverse, p.s, p.t, 0.01);
  // Lemma 3.3: candidates always contain the true intersection.
  EXPECT_TRUE(util::is_subset(p.expected_intersection, cand.s_candidate));
  expect_pin(ch, {12356u, 4u, 0x20c1b15d0918bd46ull});
}

TEST(TranscriptDigest, ToyProtocol) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  sim::SharedRandomness sh(31337);
  const auto out = core::toy_bucket_intersection(ch, sh, 7, kUniverse, p.s, p.t);
  EXPECT_EQ(out.alice, p.expected_intersection);
  expect_pin(ch, {6391u, 12u, 0x8050d4ac26394e88ull});
}

// One pin per tree depth: r=1 (the one-round base case), r=2 (one real
// verification stage), r=0 (auto: log* k).
TEST(TranscriptDigest, VerificationTreeDepths) {
  const RunPin pins[] = {
      {12322u, 2u, 0x36c9418be963de9dull},   // r=1
      {10574u, 8u, 0x2555644ef1bb7fa3ull},   // r=2
      {8928u, 20u, 0x2cb7e9e0ecbacad5ull},   // r=0 (auto)
  };
  const int depths[] = {1, 2, 0};
  const util::SetPair p = reference_pair();
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(testing::Message() << "rounds_r=" << depths[i]);
    sim::Channel ch(/*record_transcript=*/true);
    sim::SharedRandomness sh(31337);
    core::VerificationTreeParams params;
    params.rounds_r = depths[i];
    const auto out = core::verification_tree_intersection(ch, sh, 7, kUniverse,
                                                          p.s, p.t, params);
    EXPECT_EQ(out.alice, p.expected_intersection);
    expect_pin(ch, pins[i]);
  }
}

TEST(TranscriptDigest, PrivateCoin) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  util::Rng priv(2024);
  const auto out =
      core::private_coin_intersection(ch, priv, kUniverse, p.s, p.t, {});
  EXPECT_EQ(out.alice, p.expected_intersection);
  expect_pin(ch, {8901u, 18u, 0x8a404eecbff2b953ull});
}

// Checkpoint determinism (docs/ROBUSTNESS.md § checkpoint granularity):
// interrupting at a phase boundary and resuming ON THE SAME CHANNEL must
// reproduce the uninterrupted transcript bit-for-bit, so the pins above
// double as resume pins. interrupt_after stores the snapshot before
// throwing, which is exactly the crash-at-boundary case the recovery
// layer replays from.

TEST(TranscriptDigest, BasicIntersectionResumesToSamePin) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  sim::SharedRandomness sh(31337);
  core::Checkpoint ckpt;
  ckpt.interrupt_after("bi", 1);  // crash after the size exchange
  EXPECT_THROW(
      core::basic_intersection(ch, sh, 7, kUniverse, p.s, p.t, 0.01, &ckpt),
      core::CheckpointInterrupt);
  const auto cand =
      core::basic_intersection(ch, sh, 7, kUniverse, p.s, p.t, 0.01, &ckpt);
  EXPECT_TRUE(util::is_subset(p.expected_intersection, cand.s_candidate));
  EXPECT_EQ(ckpt.restores(), 1u);
  expect_pin(ch, {12356u, 4u, 0x20c1b15d0918bd46ull});
}

TEST(TranscriptDigest, VerificationTreeResumesToSamePin) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  sim::SharedRandomness sh(31337);
  core::VerificationTreeParams params;
  params.rounds_r = 2;
  core::Checkpoint ckpt;
  ckpt.interrupt_after("vt", 1);  // crash after the first tree stage
  EXPECT_THROW(core::verification_tree_intersection(
                   ch, sh, 7, kUniverse, p.s, p.t, params, nullptr, &ckpt),
               core::CheckpointInterrupt);
  const auto out = core::verification_tree_intersection(
      ch, sh, 7, kUniverse, p.s, p.t, params, nullptr, &ckpt);
  EXPECT_EQ(out.alice, p.expected_intersection);
  EXPECT_EQ(ckpt.restores(), 1u);
  expect_pin(ch, {10574u, 8u, 0x2555644ef1bb7fa3ull});
}

TEST(TranscriptDigest, BucketEqResumesToSamePin) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  sim::SharedRandomness sh(31337);
  core::Checkpoint ckpt;
  // Crash inside the amortized-EQ ladder (after its second level), two
  // protocols deep: bucket_eq restores its size exchange from the nested
  // snapshot's existence, amortized_eq restores the level state.
  ckpt.interrupt_after("amortized_eq", 2);
  EXPECT_THROW(core::bucket_eq_intersection(ch, sh, 7, kUniverse, p.s, p.t, 3,
                                            nullptr, &ckpt),
               core::CheckpointInterrupt);
  const auto out = core::bucket_eq_intersection(ch, sh, 7, kUniverse, p.s, p.t,
                                                3, nullptr, &ckpt);
  EXPECT_EQ(out.alice, p.expected_intersection);
  EXPECT_GE(ckpt.restores(), 1u);
  expect_pin(ch, {4285u, 46u, 0x86c456de5495ada7ull});
}

TEST(TranscriptDigest, MultipartyCoordinator) {
  util::Rng wrng(555);
  const auto inst =
      util::random_multi_sets(wrng, std::uint64_t{1} << 20, 9, 64, 16);
  sim::Network net(9);
  sim::SharedRandomness sh(99);
  const auto res =
      multiparty::coordinator_intersection(net, sh, 1u << 20, inst.sets);
  EXPECT_EQ(res.intersection, inst.expected_intersection);
  EXPECT_EQ(net.total_bits(), 20186u);
  EXPECT_EQ(net.rounds(), 22u);
  EXPECT_EQ(net.max_player_bits(), 20186u);
}

TEST(TranscriptDigest, MultipartyTournament) {
  util::Rng wrng(555);
  const auto inst =
      util::random_multi_sets(wrng, std::uint64_t{1} << 20, 9, 64, 16);
  sim::Network net(9);
  sim::SharedRandomness sh(99);
  const auto res =
      multiparty::tournament_intersection(net, sh, 1u << 20, inst.sets);
  EXPECT_EQ(res.intersection, inst.expected_intersection);
  EXPECT_EQ(net.total_bits(), 12086u);
  EXPECT_EQ(net.rounds(), 46u);
  EXPECT_EQ(net.max_player_bits(), 4777u);
}

// ---------- the certified session, one pin per ladder rung ----------
//
// multiparty::verified_two_party_intersection (verification tree, 2k-bit
// certificate, backstop, degradation ladder) pinned on five sessions that
// between them reach every recovery path: clean/exact, iid faults
// (retries), chaos crash/restart (checkpoint resume), a bit cap
// (degraded) and a bit cap with refuse_on_exhaustion (refused). Each pin
// covers every VerifiedRunResult field, the flight recorder's transcript
// digest and the tracer's full counter map, so a refactor of the session
// cannot move a retry, a restore or a counter without failing here.

struct SessionPin {
  util::Set intersection;
  sim::CostStats cost;
  std::uint64_t repetitions;
  bool verified;
  bool degraded;
  std::uint64_t restarts;
  std::uint64_t bits_replayed;
  bool peer_lost;
  core::DegradeRung rung;
  bool refused;
  core::BudgetDimension budget_reason;
  std::uint64_t recorder_digest;
  std::map<std::string, std::uint64_t> counters;
};

// Canonical text of a pin, compared as a whole so a mismatch prints every
// observed value next to the pinned one.
std::string describe(const SessionPin& p) {
  std::ostringstream os;
  os << "intersection {";
  for (const std::uint64_t v : p.intersection) os << v << "u, ";
  os << "}\ncost {" << p.cost.bits_total << "u, " << p.cost.bits_from_alice
     << "u, " << p.cost.bits_from_bob << "u, " << p.cost.messages << "u, "
     << p.cost.rounds << "u}\nrepetitions " << p.repetitions
     << "\nverified " << p.verified << "\ndegraded " << p.degraded
     << "\nrestarts " << p.restarts << "\nbits_replayed " << p.bits_replayed
     << "\npeer_lost " << p.peer_lost << "\nrung "
     << core::degrade_rung_name(p.rung) << "\nrefused " << p.refused
     << "\nbudget_reason " << core::budget_dimension_name(p.budget_reason)
     << std::hex << "\nrecorder_digest 0x" << p.recorder_digest << "ull"
     << std::dec << "\ncounters\n";
  for (const auto& [name, value] : p.counters) {
    os << "  {\"" << name << "\", " << value << "u},\n";
  }
  return os.str();
}

// Runs one certified session on a fixed 16-vs-16 instance (overlap 6,
// universe 2^12) with a tracer and a flight recorder installed; `rig`
// adds the session's hostile environment to the hooks.
template <typename Rig>
SessionPin run_certified(std::uint64_t seed, Rig rig) {
  util::Rng wrng(util::mix64(seed, 0x1235));
  const std::uint64_t universe = std::uint64_t{1} << 12;
  const util::SetPair pair = util::random_set_pair(wrng, universe, 16, 6);
  obs::Tracer tracer;
  obs::FlightRecorder recorder;
  multiparty::SessionHooks hooks;
  hooks.tracer = &tracer;
  hooks.recorder = &recorder;
  rig(hooks);
  const sim::SharedRandomness shared(seed);
  const multiparty::VerifiedRunResult r =
      multiparty::verified_two_party_intersection(
          shared, util::mix64(seed, 0xCE55), universe, pair.s, pair.t, {}, 0,
          {}, hooks);
  SessionPin out{r.intersection,  r.cost,      r.repetitions,
                 r.verified,      r.degraded,  r.restarts,
                 r.bits_replayed, r.peer_lost, r.rung,
                 r.refused,       r.budget_reason,
                 recorder.transcript_digest(), {}};
  for (const auto& [name, counter] : tracer.metrics().counters()) {
    out.counters[name] = counter.value();
  }
  return out;
}

TEST(CertifiedSessionPin, CleanExact) {
  const SessionPin pin =
      run_certified(0xC1EA, [](multiparty::SessionHooks&) {});
  const SessionPin want{
      {762u, 1466u, 2375u, 2763u, 3456u, 3979u},
      {507u, 343u, 164u, 12u, 12u},
      /*repetitions=*/1u,
      /*verified=*/true,
      /*degraded=*/false,
      /*restarts=*/0u,
      /*bits_replayed=*/0u,
      /*peer_lost=*/false,
      core::DegradeRung::kExact,
      /*refused=*/false,
      core::BudgetDimension::kNone,
      /*recorder_digest=*/0x617114d60210e04ull,
      {{"bi.batches", 1u},
       {"bi.instances", 12u},
       {"mp.repetitions", 1u},
       {"mp.verified_runs", 1u},
       {"vt.bi_runs", 12u},
       {"vt.stage_failures", 12u}}};
  EXPECT_EQ(describe(pin), describe(want));
}

TEST(CertifiedSessionPin, FaultPlanRetries) {
  sim::FaultSpec spec;
  spec.flip_per_bit = 5e-4;
  spec.drop_prob = 0.03;
  spec.seed = 0xFA17;
  sim::FaultPlan plan(spec);
  const SessionPin pin = run_certified(
      0xFA07, [&](multiparty::SessionHooks& hooks) { hooks.faults = &plan; });
  const SessionPin want{
      {1048u, 1278u, 1298u, 2192u, 2528u, 3651u},
      {1122u, 690u, 432u, 16u, 16u},
      /*repetitions=*/2u,
      /*verified=*/true,
      /*degraded=*/false,
      /*restarts=*/0u,
      /*bits_replayed=*/0u,
      /*peer_lost=*/false,
      core::DegradeRung::kExact,
      /*refused=*/false,
      core::BudgetDimension::kNone,
      /*recorder_digest=*/0x8ebc7a1c8357faeeull,
      {{"bi.batches", 2u},
       {"bi.instances", 24u},
       {"fault.drops", 1u},
       {"fault.injected", 1u},
       {"fault.integrity_failures", 1u},
       {"mp.repetitions", 2u},
       {"mp.verified_runs", 1u},
       {"retry.attempts", 1u},
       {"retry.decode_failures", 1u},
       {"vt.bi_runs", 12u},
       {"vt.stage_failures", 12u}}};
  EXPECT_EQ(describe(pin), describe(want));
}

TEST(CertifiedSessionPin, ChaosCrashResumesFromCheckpoint) {
  sim::ChaosSpec spec;
  spec.players = 2;
  spec.seed = 0xC407;
  spec.crash.crash_prob = 0.04;
  spec.crash.restart_ticks = 3;
  sim::ChaosPlan plan(spec, 0xC407);
  const SessionPin pin = run_certified(
      0xC406, [&](multiparty::SessionHooks& hooks) { hooks.chaos = &plan; });
  const SessionPin want{
      {401u, 571u, 2226u, 2867u, 3670u, 3926u},
      {582u, 435u, 147u, 15u, 20u},
      /*repetitions=*/1u,
      /*verified=*/true,
      /*degraded=*/false,
      /*restarts=*/2u,
      /*bits_replayed=*/110u,
      /*peer_lost=*/false,
      core::DegradeRung::kExact,
      /*refused=*/false,
      core::BudgetDimension::kNone,
      /*recorder_digest=*/0x7989fd2188eb28d5ull,
      {{"bi.batches", 2u},
       {"bi.instances", 24u},
       {"chaos.crash_blocks", 2u},
       {"chaos.crashes", 2u},
       {"chaos.restarts", 2u},
       {"checkpoint.bits_replayed", 110u},
       {"checkpoint.restores", 1u},
       {"checkpoint.resume_successes", 1u},
       {"checkpoint.snapshots", 3u},
       {"mp.repetitions", 1u},
       {"mp.verified_runs", 1u},
       {"vt.bi_runs", 12u},
       {"vt.stage_failures", 12u}}};
  EXPECT_EQ(describe(pin), describe(want));
}

TEST(CertifiedSessionPin, BitCapDegrades) {
  const SessionPin pin =
      run_certified(0xB0D6, [](multiparty::SessionHooks& hooks) {
        hooks.budget.max_bits = 64;
      });
  const SessionPin want{
      {1244u, 1619u, 1730u, 2042u, 3303u, 4064u},
      {905u, 476u, 429u, 10u, 10u},
      /*repetitions=*/1u,
      /*verified=*/false,
      /*degraded=*/true,
      /*restarts=*/0u,
      /*bits_replayed=*/0u,
      /*peer_lost=*/false,
      core::DegradeRung::kFlaggedSuperset,
      /*refused=*/false,
      core::BudgetDimension::kBits,
      /*recorder_digest=*/0xb3bf35bc5129f2a4ull,
      {{"bi.batches", 2u},
       {"bi.instances", 12u},
       {"budget.checks", 2u},
       {"budget.exhausted_bits", 1u},
       {"budget.exhaustions", 1u},
       {"checkpoint.restores", 0u},
       {"checkpoint.snapshots", 1u},
       {"degraded.clean_supersets", 1u},
       {"degraded.runs", 1u},
       {"vt.bi_runs", 11u},
       {"vt.stage_failures", 11u}}};
  EXPECT_EQ(describe(pin), describe(want));
}

TEST(CertifiedSessionPin, BitCapRefuses) {
  const SessionPin pin =
      run_certified(0xB0D7, [](multiparty::SessionHooks& hooks) {
        hooks.budget.max_bits = 64;
        hooks.budget.refuse_on_exhaustion = true;
      });
  const SessionPin want{
      {},
      {399u, 221u, 178u, 6u, 6u},
      /*repetitions=*/1u,
      /*verified=*/false,
      /*degraded=*/false,
      /*restarts=*/0u,
      /*bits_replayed=*/0u,
      /*peer_lost=*/false,
      core::DegradeRung::kRefused,
      /*refused=*/true,
      core::BudgetDimension::kBits,
      /*recorder_digest=*/0x32dfdc55bc4d1f60ull,
      {{"bi.batches", 1u},
       {"bi.instances", 10u},
       {"budget.checks", 2u},
       {"budget.exhausted_bits", 1u},
       {"budget.exhaustions", 1u},
       {"budget.refusals", 1u},
       {"checkpoint.restores", 0u},
       {"checkpoint.snapshots", 1u},
       {"vt.bi_runs", 10u},
       {"vt.stage_failures", 10u}}};
  EXPECT_EQ(describe(pin), describe(want));
}

}  // namespace
}  // namespace setint
