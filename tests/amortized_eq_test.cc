// Tests for the amortized EQ^k protocol (the FKNN-equivalent merge tree):
// correctness on mixed instance sets, one-sidedness, O(k) communication
// scaling and error behaviour.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "eq/amortized_eq.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "util/bitio.h"
#include "util/iterated_log.h"
#include "util/rng.h"

namespace setint {
namespace {

util::BitBuffer message(std::uint64_t v) {
  util::BitBuffer b;
  b.append_bits(v, 48);
  return b;
}

struct Workload {
  std::vector<util::BitBuffer> xs;
  std::vector<util::BitBuffer> ys;
  std::vector<bool> truth;
};

// `equal_mask(i)` decides whether instance i is equal.
template <typename Pred>
Workload make_workload(std::size_t k, Pred equal_mask) {
  Workload w;
  for (std::size_t i = 0; i < k; ++i) {
    const bool eq = equal_mask(i);
    w.xs.push_back(message(i));
    w.ys.push_back(message(eq ? i : i + 1'000'000));
    w.truth.push_back(eq);
  }
  return w;
}

TEST(AmortizedEq, AllEqual) {
  sim::SharedRandomness shared(1);
  sim::Channel ch;
  const Workload w = make_workload(100, [](std::size_t) { return true; });
  const auto got = eq::amortized_equality(ch, shared, 0, w.xs, w.ys);
  EXPECT_EQ(got, w.truth);
}

TEST(AmortizedEq, NoneEqual) {
  sim::SharedRandomness shared(2);
  sim::Channel ch;
  const Workload w = make_workload(100, [](std::size_t) { return false; });
  const auto got = eq::amortized_equality(ch, shared, 0, w.xs, w.ys);
  EXPECT_EQ(got, w.truth);
}

TEST(AmortizedEq, EqualInstancesNeverReportedUnequal) {
  // One-sidedness: across many runs with different seeds, equal instances
  // must always come back equal.
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    sim::SharedRandomness shared(seed);
    sim::Channel ch;
    const Workload w =
        make_workload(64, [](std::size_t i) { return i % 3 != 0; });
    const auto got = eq::amortized_equality(ch, shared, seed, w.xs, w.ys);
    for (std::size_t i = 0; i < 64; ++i) {
      if (w.truth[i]) {
        EXPECT_TRUE(got[i]) << "seed " << seed << " i " << i;
      }
    }
  }
}

class AmortizedEqMix : public ::testing::TestWithParam<int> {};

TEST_P(AmortizedEqMix, MixedPatternsResolveCorrectly) {
  const int pattern = GetParam();
  sim::SharedRandomness shared(100 + static_cast<std::uint64_t>(pattern));
  sim::Channel ch;
  const Workload w = make_workload(256, [pattern](std::size_t i) {
    switch (pattern) {
      case 0: return i % 2 == 0;
      case 1: return i < 16;          // few equal
      case 2: return i >= 240;        // few equal, at the end
      case 3: return i % 16 == 0;     // sparse equal
      default: return i % 5 != 0;     // mostly equal
    }
  });
  const auto got = eq::amortized_equality(ch, shared, 7, w.xs, w.ys);
  int wrong = 0;
  for (std::size_t i = 0; i < w.truth.size(); ++i) {
    if (w.truth[i]) {
      EXPECT_TRUE(got[i]);  // one-sided, must hold
    } else if (got[i]) {
      ++wrong;  // false accept: allowed only with tiny probability
    }
  }
  EXPECT_EQ(wrong, 0);
}

INSTANTIATE_TEST_SUITE_P(Patterns, AmortizedEqMix, ::testing::Range(0, 5));

TEST(AmortizedEq, EmptyAndSingleton) {
  sim::SharedRandomness shared(3);
  {
    sim::Channel ch;
    EXPECT_TRUE(eq::amortized_equality(ch, shared, 0, {}, {}).empty());
    EXPECT_EQ(ch.cost().bits_total, 0u);
  }
  {
    sim::Channel ch;
    const Workload w = make_workload(1, [](std::size_t) { return true; });
    EXPECT_TRUE(eq::amortized_equality(ch, shared, 0, w.xs, w.ys)[0]);
  }
  {
    sim::Channel ch;
    const Workload w = make_workload(1, [](std::size_t) { return false; });
    EXPECT_FALSE(eq::amortized_equality(ch, shared, 1, w.xs, w.ys)[0]);
  }
}

TEST(AmortizedEq, CommunicationScalesLinearly) {
  // O(k) total bits: bits/instance must not grow with k.
  sim::SharedRandomness shared(4);
  double small_rate = 0;
  double large_rate = 0;
  {
    sim::Channel ch;
    const Workload w = make_workload(256, [](std::size_t i) { return i % 2; });
    eq::amortized_equality(ch, shared, 0, w.xs, w.ys);
    small_rate = static_cast<double>(ch.cost().bits_total) / 256;
  }
  {
    sim::Channel ch;
    const Workload w =
        make_workload(8192, [](std::size_t i) { return i % 2; });
    eq::amortized_equality(ch, shared, 1, w.xs, w.ys);
    large_rate = static_cast<double>(ch.cost().bits_total) / 8192;
  }
  EXPECT_LT(large_rate, small_rate * 2.0)
      << "bits per instance should stay O(1): " << small_rate << " -> "
      << large_rate;
  EXPECT_LT(large_rate, 40.0);
}

TEST(AmortizedEq, RoundsArePolylog) {
  sim::SharedRandomness shared(5);
  sim::Channel ch;
  const Workload w = make_workload(4096, [](std::size_t i) { return i % 2; });
  eq::amortized_equality(ch, shared, 0, w.xs, w.ys);
  // O(log^2 k) with small constants; log2(4096) = 12 -> comfortably < 3*144.
  EXPECT_LT(ch.cost().rounds, 450u);
  // And far fewer than the O(sqrt k) = 64-ish * 2 budget of Theorem 3.2.
  EXPECT_LT(ch.cost().rounds, 2u * 64u * 6u);
}

TEST(AmortizedEq, StatsReported) {
  sim::SharedRandomness shared(6);
  sim::Channel ch;
  const Workload w = make_workload(128, [](std::size_t i) { return i > 60; });
  eq::AmortizedEqStats stats;
  eq::amortized_equality(ch, shared, 0, w.xs, w.ys, &stats);
  EXPECT_GE(stats.levels, util::ceil_log2(128));
  EXPECT_GT(stats.split_tests, 0u);  // 61 unequal instances force splits
}

TEST(AmortizedEq, MismatchedSizesThrow) {
  sim::SharedRandomness shared(7);
  sim::Channel ch;
  std::vector<util::BitBuffer> one(1, message(0));
  std::vector<util::BitBuffer> two(2, message(0));
  EXPECT_THROW(eq::amortized_equality(ch, shared, 0, one, two),
               std::invalid_argument);
}

TEST(AmortizedEq, VariableLengthContents) {
  // Items of different bit lengths, including empty strings.
  sim::SharedRandomness shared(8);
  sim::Channel ch;
  std::vector<util::BitBuffer> xs(4);
  std::vector<util::BitBuffer> ys(4);
  // 0: both empty (equal); 1: empty vs non-empty; 2: long equal;
  // 3: differ in last bit only.
  xs[1].append_bits(1, 1);
  xs[2].append_bits(0xabcdef0123456789ull, 64);
  ys[2].append_bits(0xabcdef0123456789ull, 64);
  xs[3].append_bits(0b10, 2);
  ys[3].append_bits(0b11, 2);
  const auto got = eq::amortized_equality(ch, shared, 0, xs, ys);
  EXPECT_TRUE(got[0]);
  EXPECT_FALSE(got[1]);
  EXPECT_TRUE(got[2]);
  EXPECT_FALSE(got[3]);
}

TEST(AmortizedEq, FalseAcceptRateIsTinyForModerateK) {
  // With K = 256 the cumulative hash budget along the tree is ~2 sqrt(K)
  // = 32 bits; over 200 runs with all-unequal inputs we should basically
  // never see a false accept.
  int false_accepts = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    sim::SharedRandomness shared(900 + seed);
    sim::Channel ch;
    const Workload w = make_workload(256, [](std::size_t) { return false; });
    const auto got = eq::amortized_equality(ch, shared, seed, w.xs, w.ys);
    for (bool g : got) false_accepts += g;
  }
  EXPECT_EQ(false_accepts, 0);
}

}  // namespace
}  // namespace setint
