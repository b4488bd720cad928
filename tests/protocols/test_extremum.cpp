// Tests for Algorithm 2 (MaximumProtocol / MinimumProtocol): Las-Vegas
// correctness, message accounting, the Theorem 4.2 expectation bound, and
// epoch isolation between consecutive runs.
#include "protocols/extremum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/statistics.hpp"

namespace topkmon {
namespace {

/// Builds a cluster whose node values are `values` (node i gets values[i]).
Cluster make_cluster(const std::vector<Value>& values, std::uint64_t seed = 1) {
  // Cluster is neither copyable nor movable; the values constructor
  // builds the fixture in place (guaranteed elision).
  return Cluster(values, seed);
}

TEST(Beats, MaxDirection) {
  EXPECT_TRUE(beats(Direction::kMax, 5, 0, 3, 1));
  EXPECT_FALSE(beats(Direction::kMax, 3, 0, 5, 1));
  // Ties: smaller id wins.
  EXPECT_TRUE(beats(Direction::kMax, 5, 0, 5, 1));
  EXPECT_FALSE(beats(Direction::kMax, 5, 1, 5, 0));
}

TEST(Beats, MinDirection) {
  EXPECT_TRUE(beats(Direction::kMin, 3, 0, 5, 1));
  EXPECT_FALSE(beats(Direction::kMin, 5, 0, 3, 1));
  EXPECT_TRUE(beats(Direction::kMin, 5, 0, 5, 1));
}

TEST(MaxProtocol, EmptyParticipants) {
  auto c = make_cluster({1, 2, 3});
  const auto r = run_max_protocol(c, {}, 3);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.messages(), 0u);
  EXPECT_EQ(c.stats().total(), 0u);
}

TEST(MaxProtocol, RejectsTooSmallN) {
  auto c = make_cluster({1, 2, 3});
  EXPECT_THROW(run_max_protocol(c, c.all_ids(), 2), std::invalid_argument);
}

TEST(MaxProtocol, SingleParticipant) {
  auto c = make_cluster({10, 20, 30});
  const std::vector<NodeId> who{1};
  const auto r = run_max_protocol(c, who, 1);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.winner, 1u);
  EXPECT_EQ(r.extremum, 20);
  EXPECT_EQ(r.rounds, 1u);   // log 1 + 1
  EXPECT_EQ(r.reports, 1u);  // p = 1 in the only round
}

TEST(MaxProtocol, AlwaysExactOverManySeeds) {
  // Las Vegas: the returned maximum is exact for every random seed.
  const std::vector<Value> values{3, 141, 59, 26, 535, 89, 79, 323};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    auto c = make_cluster(values, seed);
    const auto r = run_max_protocol(c, c.all_ids(), values.size());
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.extremum, 535) << "seed " << seed;
    EXPECT_EQ(r.winner, 4u) << "seed " << seed;
  }
}

TEST(MinProtocol, AlwaysExactOverManySeeds) {
  const std::vector<Value> values{42, -7, 100, 0, 13, -7 + 1};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    auto c = make_cluster(values, seed);
    const auto r = run_min_protocol(c, c.all_ids(), values.size());
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.extremum, -7) << "seed " << seed;
    EXPECT_EQ(r.winner, 1u) << "seed " << seed;
  }
}

TEST(MaxProtocol, TieBreaksTowardSmallerId) {
  const std::vector<Value> values{5, 9, 9, 2};
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    auto c = make_cluster(values, seed);
    const auto r = run_max_protocol(c, c.all_ids(), values.size());
    EXPECT_EQ(r.winner, 1u) << "seed " << seed;
  }
}

TEST(MaxProtocol, SubsetParticipantsIgnoreOthers) {
  const std::vector<Value> values{1000, 5, 3, 8};
  auto c = make_cluster(values);
  const std::vector<NodeId> who{1, 2, 3};
  const auto r = run_max_protocol(c, who, 3);
  EXPECT_EQ(r.winner, 3u);
  EXPECT_EQ(r.extremum, 8);
}

TEST(MaxProtocol, RoundsAreLogNPlusOne) {
  for (const std::size_t n : {1u, 2u, 3u, 4u, 7u, 8u, 9u, 64u}) {
    std::vector<Value> values(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<Value>(i);
    auto c = make_cluster(values);
    const auto r = run_max_protocol(c, c.all_ids(), n);
    EXPECT_EQ(r.rounds, ceil_log2(next_pow2(n)) + 1) << "n=" << n;
  }
}

TEST(MaxProtocol, NegativeValuesWork) {
  const std::vector<Value> values{-50, -3, -77, -1, -20};
  auto c = make_cluster(values, 5);
  const auto r = run_max_protocol(c, c.all_ids(), values.size());
  EXPECT_EQ(r.extremum, -1);
  EXPECT_EQ(r.winner, 3u);
}

TEST(MaxProtocol, MessageAccountingMatchesNetwork) {
  const std::vector<Value> values{8, 1, 6, 3, 5, 7, 4, 9};
  auto c = make_cluster(values, 11);
  const auto r = run_max_protocol(c, c.all_ids(), values.size());
  EXPECT_EQ(c.stats().upstream(), r.reports);
  EXPECT_EQ(c.stats().broadcast(), r.beacons);
  EXPECT_EQ(c.stats().total(), r.messages());
}

TEST(MaxProtocol, SuppressIdleBroadcastsSendsFewerBeacons) {
  std::vector<Value> values(256);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<Value>(i);
  }
  std::uint64_t beacons_normal = 0;
  std::uint64_t beacons_suppressed = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    auto c1 = make_cluster(values, seed);
    beacons_normal += run_max_protocol(c1, c1.all_ids(), 256).beacons;
    ProtocolOptions opts;
    opts.suppress_idle_broadcasts = true;
    auto c2 = make_cluster(values, seed);
    const auto r = run_max_protocol(c2, c2.all_ids(), 256, opts);
    beacons_suppressed += r.beacons;
    EXPECT_EQ(r.extremum, 255) << "suppression must not affect correctness";
  }
  EXPECT_LT(beacons_suppressed, beacons_normal);
}

TEST(MaxProtocol, ConsecutiveRunsIsolatedByEpochs) {
  // A stale beacon from run 1 (maximum 1000) must not wrongly deactivate
  // nodes in run 2 over a low-valued subset.
  const std::vector<Value> values{1000, 900, 5, 3};
  auto c = make_cluster(values, 17);
  const std::vector<NodeId> high{0, 1};
  const auto r1 = run_max_protocol(c, high, 2);
  EXPECT_EQ(r1.extremum, 1000);
  // Nodes 2 and 3 did not drain their mailboxes during run 1; the beacons
  // with value 1000 are still queued for them.
  const std::vector<NodeId> low{2, 3};
  const auto r2 = run_max_protocol(c, low, 2);
  ASSERT_TRUE(r2.found);
  EXPECT_EQ(r2.extremum, 5);
  EXPECT_EQ(r2.winner, 2u);
}

TEST(MaxProtocol, ExpectedReportsWithinTheorem42Bound) {
  // Theorem 4.2: E[#reports] <= 2 log N + 1. Check the empirical mean over
  // many trials with a safety margin for sampling noise.
  for (const std::size_t n : {16u, 64u, 256u}) {
    std::vector<Value> values(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<Value>(i * 10);
    OnlineStats reports;
    for (std::uint64_t seed = 0; seed < 400; ++seed) {
      auto c = make_cluster(values, seed);
      reports.add(static_cast<double>(
          run_max_protocol(c, c.all_ids(), n).reports));
    }
    const double bound =
        2.0 * static_cast<double>(floor_log2(next_pow2(n))) + 1.0;
    EXPECT_LE(reports.mean(), bound * 1.05) << "n=" << n;
    EXPECT_GE(reports.mean(), 1.0);
  }
}

TEST(MaxProtocol, ReportsGrowLogarithmically) {
  // Doubling n four times should grow the mean report count by a bounded
  // additive amount (~2 per doubling), far below linear growth.
  std::vector<double> means;
  for (const std::size_t n : {32u, 512u}) {
    std::vector<Value> values(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<Value>(i);
    OnlineStats reports;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
      auto c = make_cluster(values, seed);
      reports.add(static_cast<double>(
          run_max_protocol(c, c.all_ids(), n).reports));
    }
    means.push_back(reports.mean());
  }
  // 512/32 = 16x more nodes; log-growth adds ~8 reports, linear would add
  // ~480. Require clearly sublinear growth.
  EXPECT_LT(means[1], means[0] + 12.0);
}

TEST(MaxProtocol, AllNodesInactiveAfterRun) {
  const std::vector<Value> values{4, 8, 15, 16, 23, 42};
  auto c = make_cluster(values, 19);
  (void)run_max_protocol(c, c.all_ids(), values.size());
  for (NodeId i = 0; i < values.size(); ++i) {
    EXPECT_FALSE(c.runtime().listening.test(i));
  }
}

TEST(MinProtocol, MirrorsMaxCost) {
  // The min protocol on values is distributionally the max protocol on
  // negated values; sanity-check the cost is in the same ballpark.
  std::vector<Value> values(128);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<Value>(i);
  }
  OnlineStats max_reports;
  OnlineStats min_reports;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    auto c1 = make_cluster(values, seed);
    max_reports.add(static_cast<double>(
        run_max_protocol(c1, c1.all_ids(), 128).reports));
    auto c2 = make_cluster(values, seed);
    min_reports.add(static_cast<double>(
        run_min_protocol(c2, c2.all_ids(), 128).reports));
  }
  EXPECT_NEAR(max_reports.mean(), min_reports.mean(), 2.5);
}

}  // namespace
}  // namespace topkmon
