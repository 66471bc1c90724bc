// Tests for the application layer: similarity statistics and the
// distributed join.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/join.h"
#include "apps/similarity.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

// ---------- similarity ----------

struct SimCase {
  std::size_t k;
  std::size_t shared;
};

class Similarity : public ::testing::TestWithParam<SimCase> {};

TEST_P(Similarity, AllStatisticsMatchGroundTruth) {
  const SimCase c = GetParam();
  util::Rng wrng(c.k * 17 + c.shared);
  const util::SetPair p =
      util::random_set_pair(wrng, std::uint64_t{1} << 26, c.k, c.shared);
  sim::SharedRandomness shared(c.k + 3);
  sim::Channel ch;
  const apps::SimilarityReport rep = apps::similarity_report(
      ch, shared, 0, std::uint64_t{1} << 26, p.s, p.t);

  const util::Set uni = util::set_union(p.s, p.t);
  const util::Set sym = util::set_symmetric_difference(p.s, p.t);
  EXPECT_EQ(rep.size_s, p.s.size());
  EXPECT_EQ(rep.size_t_side, p.t.size());
  EXPECT_EQ(rep.intersection, p.expected_intersection);
  EXPECT_EQ(rep.intersection_size, p.expected_intersection.size());
  EXPECT_EQ(rep.union_size, uni.size());
  EXPECT_EQ(rep.symmetric_difference, sym.size());
  if (!uni.empty()) {
    EXPECT_DOUBLE_EQ(rep.jaccard,
                     static_cast<double>(p.expected_intersection.size()) /
                         static_cast<double>(uni.size()));
    EXPECT_DOUBLE_EQ(rep.rarity1, static_cast<double>(sym.size()) /
                                      static_cast<double>(uni.size()));
    EXPECT_DOUBLE_EQ(rep.rarity2, rep.jaccard);
    EXPECT_NEAR(rep.rarity1 + rep.rarity2, 1.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Similarity,
                         ::testing::Values(SimCase{1, 0}, SimCase{1, 1},
                                           SimCase{16, 8}, SimCase{64, 0},
                                           SimCase{64, 64}, SimCase{256, 100},
                                           SimCase{1024, 512}));

TEST(Similarity, EmptyInputs) {
  sim::SharedRandomness shared(1);
  sim::Channel ch;
  const apps::SimilarityReport rep =
      apps::similarity_report(ch, shared, 0, 100, util::Set{}, util::Set{});
  EXPECT_EQ(rep.union_size, 0u);
  EXPECT_DOUBLE_EQ(rep.jaccard, 0.0);
  EXPECT_DOUBLE_EQ(rep.rarity1, 0.0);
}

TEST(Similarity, HammingDistanceOfSparseVectors) {
  // Sets as positions of ones: Hamming distance = |symmetric difference|.
  const util::Set a{1, 5, 9};
  const util::Set b{5, 9, 12, 13};
  sim::SharedRandomness shared(2);
  sim::Channel ch;
  const apps::SimilarityReport rep =
      apps::similarity_report(ch, shared, 0, 100, a, b);
  EXPECT_EQ(rep.symmetric_difference, 3u);  // {1, 12, 13}
}

TEST(Similarity, CostIsDominatedByIntersectionProtocol) {
  util::Rng wrng(3);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 24, 512, 256);
  sim::SharedRandomness shared(3);
  sim::Channel ch;
  apps::similarity_report(ch, shared, 0, 1u << 24, p.s, p.t);
  // Size exchange adds ~2 gamma codes (< 50 bits) on top of the protocol.
  sim::Channel plain;
  core::verification_tree_intersection(plain, shared,
                                       util::mix64(0, 0x5171), 1u << 24, p.s,
                                       p.t, {});
  EXPECT_LT(ch.cost().bits_total, plain.cost().bits_total + 50);
}

// ---------- distributed join ----------

// "<prefix><key>", built by appending: GCC 12 at -O3 reports a false
// -Wrestrict on `"L" + std::to_string(key)`.
std::string payload(const char* prefix, std::uint64_t key) {
  std::string s = prefix;
  s += std::to_string(key);
  return s;
}

std::vector<apps::Row> make_table(const util::Set& keys,
                                  const char* prefix) {
  std::vector<apps::Row> rows;
  for (std::uint64_t k : keys) rows.push_back(apps::Row{k, payload(prefix, k)});
  return rows;
}

TEST(Join, MatchesLocalJoin) {
  util::Rng wrng(4);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 20, 128, 64);
  sim::SharedRandomness shared(4);
  sim::Channel ch;
  const apps::JoinResult res = apps::distributed_join(
      ch, shared, 0, 1u << 20, make_table(p.s, "L"), make_table(p.t, "R"));
  ASSERT_EQ(res.rows.size(), p.expected_intersection.size());
  for (std::size_t i = 0; i < res.rows.size(); ++i) {
    const std::uint64_t key = p.expected_intersection[i];
    EXPECT_EQ(res.rows[i].key, key);
    EXPECT_EQ(res.rows[i].left_payload, payload("L", key));
    EXPECT_EQ(res.rows[i].right_payload, payload("R", key));
  }
}

TEST(Join, BeatsNaivePlanWhenJoinIsSelective) {
  // Large tables, small join: protocol + matched payloads must undercut
  // shipping the whole table.
  util::Rng wrng(5);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 24, 2048, 16);
  sim::SharedRandomness shared(5);
  sim::Channel ch;
  const apps::JoinResult res = apps::distributed_join(
      ch, shared, 0, 1u << 24, make_table(p.s, "leftpayload-"),
      make_table(p.t, "rightpayload-"));
  EXPECT_EQ(res.rows.size(), 16u);
  EXPECT_LT(res.key_protocol_bits + res.payload_bits, res.naive_bits);
}

TEST(Join, EmptyTables) {
  sim::SharedRandomness shared(6);
  sim::Channel ch;
  const apps::JoinResult res =
      apps::distributed_join(ch, shared, 0, 100, {}, {});
  EXPECT_TRUE(res.rows.empty());
}

TEST(Join, NoMatches) {
  sim::SharedRandomness shared(7);
  sim::Channel ch;
  const apps::JoinResult res = apps::distributed_join(
      ch, shared, 0, 100, make_table(util::Set{1, 2, 3}, "a"),
      make_table(util::Set{4, 5, 6}, "b"));
  EXPECT_TRUE(res.rows.empty());
  EXPECT_EQ(res.payload_bits, 2u);  // two empty set encodings, 1 bit each
}

TEST(Join, UnsortedInputRowsAreHandled) {
  std::vector<apps::Row> left{{30, "c"}, {10, "a"}, {20, "b"}};
  std::vector<apps::Row> right{{20, "x"}, {40, "y"}, {10, "z"}};
  sim::SharedRandomness shared(8);
  sim::Channel ch;
  const apps::JoinResult res =
      apps::distributed_join(ch, shared, 0, 100, left, right);
  ASSERT_EQ(res.rows.size(), 2u);
  EXPECT_EQ(res.rows[0].key, 10u);
  EXPECT_EQ(res.rows[0].left_payload, "a");
  EXPECT_EQ(res.rows[0].right_payload, "z");
  EXPECT_EQ(res.rows[1].key, 20u);
}

TEST(Join, DuplicateKeysRejected) {
  std::vector<apps::Row> dup{{1, "a"}, {1, "b"}};
  sim::SharedRandomness shared(9);
  sim::Channel ch;
  EXPECT_THROW(apps::distributed_join(ch, shared, 0, 100, dup, {}),
               std::invalid_argument);
}

TEST(Join, PayloadsWithArbitraryBytes) {
  std::string binary;
  for (int i = 0; i < 256; ++i) binary.push_back(static_cast<char>(i));
  std::vector<apps::Row> left{{5, binary}};
  std::vector<apps::Row> right{{5, "plain"}};
  sim::SharedRandomness shared(10);
  sim::Channel ch;
  const apps::JoinResult res =
      apps::distributed_join(ch, shared, 0, 100, left, right);
  ASSERT_EQ(res.rows.size(), 1u);
  EXPECT_EQ(res.rows[0].left_payload, binary);
}

}  // namespace
}  // namespace setint
