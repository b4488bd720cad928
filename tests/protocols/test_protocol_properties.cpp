// Property-style tests of the protocol layer beyond the basic unit tests:
// loose upper bounds N, arbitrary participant subsets, back-to-back
// executions, option interplay, and value-range extremes.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>
#include <vector>

#include "protocols/extremum.hpp"
#include "util/statistics.hpp"

namespace topkmon {
namespace {

Cluster make_cluster(const std::vector<Value>& values, std::uint64_t seed) {
  // Cluster is neither copyable nor movable; the values constructor
  // builds the fixture in place (guaranteed elision).
  return Cluster(values, seed);
}

// ---------------------------------------------------------------------------
// Loose N: the protocol must stay correct (and Las-Vegas) when N is any
// upper bound, not the exact participant count; the paper's Algorithm 1
// calls MAXIMUMPROTOCOL(n-k) on a handful of violators.
// ---------------------------------------------------------------------------

class LooseUpperBound
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(LooseUpperBound, StillExactAndBounded) {
  const auto [slack_factor, seed] = GetParam();
  const std::vector<Value> values{12, 99, 5, 40, 77, 63, 8, 21};
  auto c = make_cluster(values, seed);
  const std::uint64_t n_upper = values.size() * slack_factor;
  const auto r = run_max_protocol(c, c.all_ids(), n_upper);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.extremum, 99);
  EXPECT_EQ(r.winner, 1u);
  EXPECT_EQ(r.rounds, floor_log2(next_pow2(n_upper)) + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Slack, LooseUpperBound,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 16, 1024),
                       ::testing::Range<std::uint64_t>(1, 6)));

// ---------------------------------------------------------------------------
// Arbitrary subsets: correctness is oblivious to which ids participate.
// ---------------------------------------------------------------------------

TEST(ProtocolSubsets, RandomSubsetsAlwaysExact) {
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 24;
    std::vector<Value> values(n);
    for (auto& v : values) v = rng.uniform_int(-1'000, 1'000);
    auto c = make_cluster(values, 1'000 + static_cast<std::uint64_t>(trial));

    std::vector<NodeId> ids(n);
    std::iota(ids.begin(), ids.end(), 0);
    rng.shuffle(ids.begin(), ids.end());
    const std::size_t take = 1 + rng.uniform_below(n);
    ids.resize(take);

    Value expect = kMinusInf;
    NodeId expect_id = kNoHolder;
    for (const NodeId id : ids) {
      if (values[id] > expect ||
          (values[id] == expect && id < expect_id)) {
        expect = values[id];
        expect_id = id;
      }
    }
    const auto r = run_max_protocol(c, ids, take);
    EXPECT_EQ(r.extremum, expect) << "trial " << trial;
    EXPECT_EQ(r.winner, expect_id) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Back-to-back executions on one cluster must be independent (epoch
// isolation) in both directions and under value changes between runs.
// ---------------------------------------------------------------------------

TEST(ProtocolSequencing, ValueChangesBetweenRunsRespected) {
  const std::vector<Value> values{10, 20, 30, 40};
  auto c = make_cluster(values, 7);
  EXPECT_EQ(run_max_protocol(c, c.all_ids(), 4).extremum, 40);
  c.set_value(3, -5);
  c.set_value(0, 35);
  EXPECT_EQ(run_max_protocol(c, c.all_ids(), 4).extremum, 35);
  EXPECT_EQ(run_min_protocol(c, c.all_ids(), 4).extremum, -5);
}

TEST(ProtocolSequencing, ManyAlternatingRunsStayExact) {
  auto c = make_cluster({3, 1, 4, 1, 5, 9, 2, 6}, 11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(run_max_protocol(c, c.all_ids(), 8).extremum, 9);
    EXPECT_EQ(run_min_protocol(c, c.all_ids(), 8).extremum, 1);
    // Min with a tie at 1: ids 1 and 3 -> smaller id wins.
    EXPECT_EQ(run_min_protocol(c, c.all_ids(), 8).winner, 1u);
  }
}

// ---------------------------------------------------------------------------
// Extreme magnitudes: values near the integer limits must survive the
// beacon/report path unchanged (no midpoints are computed inside the
// protocol itself).
// ---------------------------------------------------------------------------

TEST(ProtocolExtremes, HugeMagnitudesExact) {
  const Value big = std::numeric_limits<Value>::max() / 2;
  const std::vector<Value> values{-big, big, 0, big - 1, -big + 1};
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    auto c = make_cluster(values, seed);
    EXPECT_EQ(run_max_protocol(c, c.all_ids(), 5).extremum, big);
    EXPECT_EQ(run_min_protocol(c, c.all_ids(), 5).extremum, -big);
  }
}

// ---------------------------------------------------------------------------
// Cost structure: reports can never exceed participants + (rounds-ish)
// bound; beacons never exceed rounds.
// ---------------------------------------------------------------------------

TEST(ProtocolCosts, StructuralUpperBounds) {
  Rng rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.uniform_below(100);
    std::vector<Value> values(n);
    for (auto& v : values) v = rng.uniform_int(0, 1'000'000);
    auto c = make_cluster(values, 31 + static_cast<std::uint64_t>(trial));
    const auto r = run_max_protocol(c, c.all_ids(), n);
    EXPECT_LE(r.reports, n);            // each node reports at most once
    EXPECT_LE(r.beacons, r.rounds);     // at most one beacon per round
    EXPECT_GE(r.reports, 1u);           // final round has p = 1
  }
}

// ---------------------------------------------------------------------------
// Distributional regression: the empirical mean report count at n = 128
// stays within a tight window around its theoretical scale (log N + ~2.5,
// well under 2 log N + 1). Guards against accidental changes to the coin
// schedule.
// ---------------------------------------------------------------------------

TEST(ProtocolCosts, MeanReportsStableAtN128) {
  std::vector<Value> values(128);
  std::iota(values.begin(), values.end(), 0);
  OnlineStats reports;
  for (std::uint64_t seed = 0; seed < 600; ++seed) {
    auto c = make_cluster(values, seed);
    reports.add(
        static_cast<double>(run_max_protocol(c, c.all_ids(), 128).reports));
  }
  EXPECT_GT(reports.mean(), 6.0);
  EXPECT_LT(reports.mean(), 15.0);  // 2 log 128 + 1 = 15
}

}  // namespace
}  // namespace topkmon
