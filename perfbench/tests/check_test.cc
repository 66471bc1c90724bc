// The benchmark's output check must accept correct answers and reject
// corrupted ones, or a benchmark run could report wrong answers as done.
#include "check.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace {

using namespace setint;
using perfbench::Outcome;

struct Pair {
  util::Set s;
  util::Set t;
  util::Set both;
};

Pair make_pair(std::uint64_t seed, std::size_t k) {
  util::Rng rng(seed);
  util::SetPair p = util::random_set_pair(rng, 1u << 20, k, k / 2);
  return {p.s, p.t, p.expected_intersection};
}

TEST(CheckFacade, AcceptsTheLibraryAnswer) {
  const Pair p = make_pair(1, 64);
  const IntersectResult r = setint::intersect(p.s, p.t, {.universe = 1u << 20});
  EXPECT_EQ(perfbench::check_facade(p.s, p.t, r), Outcome::kExact);
}

TEST(CheckFacade, RejectsCorruptedVerifiedAnswers) {
  const Pair p = make_pair(2, 64);
  IntersectResult r;
  r.verified = true;
  r.intersection = p.both;
  EXPECT_EQ(perfbench::check_facade(p.s, p.t, r), Outcome::kExact);

  IntersectResult missing = r;
  missing.intersection.pop_back();
  EXPECT_EQ(perfbench::check_facade(p.s, p.t, missing), Outcome::kWrong);

  IntersectResult extra = r;  // an element of S outside T
  for (const std::uint64_t x : p.s) {
    if (!util::set_contains(p.t, x)) {
      extra.intersection = util::set_union(p.both, util::Set{x});
      break;
    }
  }
  EXPECT_EQ(perfbench::check_facade(p.s, p.t, extra), Outcome::kWrong);

  IntersectResult two_flags = r;
  two_flags.degraded = true;
  EXPECT_EQ(perfbench::check_facade(p.s, p.t, two_flags), Outcome::kWrong);

  IntersectResult no_flag = r;
  no_flag.verified = false;
  EXPECT_EQ(perfbench::check_facade(p.s, p.t, no_flag), Outcome::kWrong);
}

TEST(CheckFacade, DegradedMustBeASupersetInsideS) {
  const Pair p = make_pair(3, 64);
  IntersectResult r;
  r.degraded = true;
  r.intersection = p.s;  // the input fallback: a valid superset
  EXPECT_EQ(perfbench::check_facade(p.s, p.t, r), Outcome::kDegraded);

  IntersectResult short_answer = r;
  short_answer.intersection = util::set_difference(p.s, util::Set{p.both[0]});
  EXPECT_EQ(perfbench::check_facade(p.s, p.t, short_answer), Outcome::kWrong);

  IntersectResult outside = r;  // an element of T outside S
  for (const std::uint64_t x : p.t) {
    if (!util::set_contains(p.s, x)) {
      outside.intersection = util::set_union(p.s, util::Set{x});
      break;
    }
  }
  EXPECT_EQ(perfbench::check_facade(p.s, p.t, outside), Outcome::kWrong);
}

TEST(CheckFacade, RefusedMustBeEmpty) {
  const Pair p = make_pair(4, 16);
  IntersectResult r;
  r.refused = true;
  EXPECT_EQ(perfbench::check_facade(p.s, p.t, r), Outcome::kRefused);
  r.intersection = {p.both[0]};
  EXPECT_EQ(perfbench::check_facade(p.s, p.t, r), Outcome::kWrong);
}

TEST(CheckService, MatchesAMachineAndRejectsCorruption) {
  for (const std::string_view kind : core::kMachineKinds) {
    const Pair p = make_pair(5, 40);
    core::MachineConfig cfg;
    cfg.seed = 11;
    cfg.nonce = 12;
    cfg.universe = 1u << 20;
    cfg.s = p.s;
    cfg.t = p.t;
    const perfbench::BlockingRef ref = perfbench::blocking_reference(kind, cfg);
    ASSERT_TRUE(ref.outputs_ok) << kind;

    std::vector<std::unique_ptr<core::ProtocolMachine>> machines;
    machines.push_back(core::make_machine(kind, cfg));
    runtime::SchedulerOptions opts;
    opts.chunk_bytes = 7;
    const runtime::ServiceRun run =
        runtime::run_service(std::move(machines), opts, 1);
    const runtime::SessionRecord rec = run.record(0);
    EXPECT_EQ(perfbench::check_service(rec, ref), Outcome::kExact) << kind;

    runtime::SessionRecord bad_digest = rec;
    bad_digest.digest ^= 1;
    EXPECT_EQ(perfbench::check_service(bad_digest, ref), Outcome::kWrong);
    runtime::SessionRecord bad_result = rec;
    bad_result.result_fingerprint ^= 1;
    EXPECT_EQ(perfbench::check_service(bad_result, ref), Outcome::kWrong);
    runtime::SessionRecord failed = rec;
    failed.final_status = core::MachineStatus::kFailed;
    EXPECT_EQ(perfbench::check_service(failed, ref), Outcome::kWrong);
    perfbench::BlockingRef wrong_outputs = ref;
    wrong_outputs.outputs_ok = false;
    EXPECT_EQ(perfbench::check_service(rec, wrong_outputs), Outcome::kWrong);
  }
}

}  // namespace
