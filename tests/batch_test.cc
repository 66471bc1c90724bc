// The batch engine's contract: parallel execution is bit-identical to
// serial execution. Engine-level tests cover scheduling, exception
// determinism and transcript digests (the machinery of runtime_test.cc);
// facade-level tests pin results, per-session reports and merged metrics
// JSON across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/verification_tree.h"
#include "obs/recorder.h"
#include "obs/tracer.h"
#include "runtime/batch.h"
#include "setint.h"
#include "sim/adversary.h"
#include "sim/channel.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "sim/randomness.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

// IntersectOptions built by assignment: a designated initializer that
// names only some fields leaves the struct-typed members (limits, retry,
// budget) without initializers and trips -Wmissing-field-initializers.
IntersectOptions options_for(std::uint64_t universe,
                             std::uint64_t seed = IntersectOptions{}.seed) {
  IntersectOptions o;
  o.universe = universe;
  o.seed = seed;
  return o;
}

// ---------- engine scheduling ----------

TEST(RunSessions, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(257);
    runtime::run_sessions(hits.size(), threads,
                          [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(RunSessions, ZeroCountIsANoop) {
  runtime::run_sessions(0, 8, [](std::size_t) { FAIL(); });
}

TEST(RunSessions, ResolveThreads) {
  EXPECT_EQ(runtime::resolve_threads(1), 1);
  EXPECT_EQ(runtime::resolve_threads(5), 5);
  EXPECT_GE(runtime::resolve_threads(0), 1);  // hardware concurrency
}

TEST(RunSessions, RethrowsLowestIndexRegardlessOfThreads) {
  for (int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(64);
    try {
      runtime::run_sessions(hits.size(), threads, [&](std::size_t i) {
        hits[i].fetch_add(1);
        if (i == 7 || i == 41) {
          throw std::runtime_error("session " + std::to_string(i));
        }
      });
      FAIL() << "expected a rethrow at threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "session 7") << "threads " << threads;
    }
    // Every session still ran despite the failures — exception handling
    // must not change which sessions execute.
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

// ---------- engine-level transcript determinism ----------

// Each session runs the full verification-tree protocol on a recording
// channel and reports its transcript digest — the strongest per-session
// observable (every message, bit for bit, in order).
std::vector<std::uint64_t> transcript_digests(int threads) {
  constexpr std::size_t kSessions = 24;
  std::vector<std::uint64_t> digests(kSessions);
  runtime::run_sessions(kSessions, threads, [&](std::size_t i) {
    const std::uint64_t seed = batch_session_seed(0xD16E57, i);
    util::Rng wrng(seed);
    const util::SetPair p = util::random_set_pair(wrng, 1u << 24, 96, 48);
    sim::SharedRandomness shared(seed);
    sim::Channel ch(/*record_transcript=*/true);
    core::verification_tree_intersection(ch, shared, seed, 1u << 24, p.s,
                                         p.t, {});
    digests[i] = ch.transcript()->digest();
  });
  return digests;
}

TEST(BatchDeterminism, TranscriptDigestsIdenticalAcrossThreadCounts) {
  const std::vector<std::uint64_t> serial = transcript_digests(1);
  EXPECT_EQ(serial, transcript_digests(2));
  EXPECT_EQ(serial, transcript_digests(8));
}

// ---------- facade-level determinism ----------

struct Workload {
  std::vector<util::SetPair> pairs;
  std::vector<Instance> instances;
};

Workload make_workload(std::size_t sessions) {
  Workload w;
  w.pairs.reserve(sessions);
  util::Rng wrng(0xBA7C);
  for (std::size_t i = 0; i < sessions; ++i) {
    w.pairs.push_back(
        util::random_set_pair(wrng, 1u << 22, 48 + wrng.below(64),
                              wrng.below(32)));
  }
  for (const util::SetPair& p : w.pairs) {
    w.instances.push_back({p.s, p.t});
  }
  return w;
}

TEST(BatchDeterminism, RunBatchBitIdenticalAcrossThreadCounts) {
  const Workload w = make_workload(32);
  const IntersectOptions options = options_for(1u << 22, 99);

  const BatchResult serial =
      run_batch(options, w.instances, {.threads = 1, .trace = true});
  ASSERT_EQ(serial.results.size(), w.instances.size());

  for (int threads : {2, 8}) {
    const BatchResult parallel =
        run_batch(options, w.instances, {.threads = threads, .trace = true});
    ASSERT_EQ(parallel.results.size(), serial.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
      const IntersectResult& a = serial.results[i];
      const IntersectResult& b = parallel.results[i];
      EXPECT_EQ(a.intersection, b.intersection) << i;
      EXPECT_EQ(a.bits, b.bits) << i;
      EXPECT_EQ(a.rounds, b.rounds) << i;
      EXPECT_EQ(a.verified, b.verified) << i;
      EXPECT_EQ(a.repetitions, b.repetitions) << i;
      // Per-session run reports serialize byte-for-byte identically.
      EXPECT_EQ(a.report.ToJson().dump(2), b.report.ToJson().dump(2)) << i;
    }
    // Merged metrics JSON: byte-for-byte independent of thread count.
    EXPECT_EQ(serial.metrics.ToJson().dump(2),
              parallel.metrics.ToJson().dump(2))
        << "threads=" << threads;
  }
}

TEST(RunBatch, ResultsAreCorrectAndSeedReproducible) {
  const Workload w = make_workload(8);
  const IntersectOptions options = options_for(1u << 22, 7);
  const BatchResult out = run_batch(options, w.instances, {.threads = 2});
  for (std::size_t i = 0; i < w.pairs.size(); ++i) {
    EXPECT_EQ(out.results[i].intersection, w.pairs[i].expected_intersection)
        << i;
    EXPECT_TRUE(out.results[i].verified) << i;
    // Any batch session is reproducible standalone via the published
    // seed derivation.
    IntersectOptions single = options;
    single.seed = batch_session_seed(options.seed, i);
    const IntersectResult solo =
        intersect(w.instances[i].s, w.instances[i].t, single);
    EXPECT_EQ(solo.intersection, out.results[i].intersection) << i;
    EXPECT_EQ(solo.bits, out.results[i].bits) << i;
  }
}

TEST(RunBatch, MergedMetricsEqualSessionOrderFold) {
  const Workload w = make_workload(6);
  const IntersectOptions options = options_for(1u << 22, 3);
  const BatchResult batched =
      run_batch(options, w.instances, {.threads = 8, .trace = true});

  // Reference fold: run each session standalone and merge in order.
  obs::MetricsRegistry expected;
  for (std::size_t i = 0; i < w.instances.size(); ++i) {
    obs::Tracer tracer;
    IntersectOptions single = options;
    single.seed = batch_session_seed(options.seed, i);
    single.tracer = &tracer;
    intersect(w.instances[i].s, w.instances[i].t, single);
    expected.merge(tracer.metrics());
  }
  EXPECT_EQ(batched.metrics.ToJson().dump(2), expected.ToJson().dump(2));
}

TEST(RunBatch, RejectsSharedStatefulHooks) {
  const Workload w = make_workload(2);
  obs::Tracer tracer;
  obs::FlightRecorder recorder;
  sim::FaultPlan faults(sim::FaultSpec{});
  sim::Adversary adversary;
  sim::ChaosPlan chaos(sim::ChaosSpec{});
  const auto expect_rejected = [&](auto install) {
    IntersectOptions options = options_for(1u << 22);
    install(options);
    EXPECT_THROW(run_batch(options, w.instances, {}), std::invalid_argument);
  };
  expect_rejected([&](IntersectOptions& o) { o.tracer = &tracer; });
  expect_rejected([&](IntersectOptions& o) { o.recorder = &recorder; });
  expect_rejected([&](IntersectOptions& o) { o.fault_plan = &faults; });
  expect_rejected([&](IntersectOptions& o) { o.adversary = &adversary; });
  expect_rejected([&](IntersectOptions& o) { o.chaos_plan = &chaos; });
}

TEST(RunBatch, EmptyBatch) {
  const BatchResult out = run_batch({}, {}, {.threads = 4});
  EXPECT_TRUE(out.results.empty());
  EXPECT_TRUE(out.metrics.empty());
}

}  // namespace
}  // namespace setint
