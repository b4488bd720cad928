// Tests for the ordered top-k monitor (§5 future-work variant), as its
// native role pair.
#include <gtest/gtest.h>

#include <vector>

#include "core/ordered_roles.hpp"
#include "exp/scenario.hpp"
#include "native_rig.hpp"

namespace topkmon {
namespace {

using rig::Rig;

const std::vector<NodeId>& order(const Rig& r) {
  return r.coord<OrderedCoordinator>().ordered_topk();
}

/// A rank-order-validated scenario (validate_order: the answer's order
/// must match the ground truth at every step).
exp::Scenario ordered_scenario(std::size_t n, std::size_t k,
                               std::size_t steps, std::uint64_t seed) {
  exp::Scenario sc;
  sc.monitor = "ordered";
  sc.n = n;
  sc.k = k;
  sc.steps = steps;
  sc.seed = seed;
  sc.validate_order = true;
  return sc;
}

TEST(OrderedTopk, RejectsBadK) {
  EXPECT_THROW(OrderedCoordinator(0), std::invalid_argument);
}

TEST(OrderedTopk, InitializationOrdersTopK) {
  Rig r("ordered", 3, 5);
  r.init({30, 10, 50, 20, 40});
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{0, 2, 4}));
  EXPECT_EQ(order(r), (std::vector<NodeId>{2, 4, 0}));
}

TEST(OrderedTopk, QuietWhenNothingCrosses) {
  Rig r("ordered", 2, 4, 3);
  r.init({4'000, 3'000, 2'000, 1'000});
  const auto baseline = r.comm().total();
  r.step({4'010, 2'990, 2'000, 1'000});
  EXPECT_EQ(r.comm().total(), baseline);
  EXPECT_EQ(order(r), (std::vector<NodeId>{0, 1}));
}

TEST(OrderedTopk, InternalSwapReordersWithoutReset) {
  Rig r("ordered", 2, 4, 5);
  r.init({4'000, 3'000, 2'000, 1'000});
  const auto resets_before = r.stats().filter_resets;
  // Members 0 and 1 swap; both stay far above the boundary.
  r.step({2'900, 3'900, 2'000, 1'000});
  EXPECT_EQ(order(r), (std::vector<NodeId>{1, 0}));
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{0, 1}));  // set unchanged
  EXPECT_EQ(r.stats().filter_resets, resets_before);
}

TEST(OrderedTopk, BoundaryCrossingChangesSet) {
  Rig r("ordered", 2, 4, 7);
  r.init({4'000, 3'000, 2'000, 1'000});
  r.step({4'000, 500, 3'500, 1'000});  // member collapses, outsider rises
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(order(r), (std::vector<NodeId>{0, 2}));
}

TEST(OrderedTopk, KEqualsOneDegeneratesToMaxTracking) {
  Rig r("ordered", 1, 6, 9);
  r.init({10, 20, 30, 40, 50, 60});
  EXPECT_EQ(order(r), (std::vector<NodeId>{5}));
  r.step({1'000, 20, 30, 40, 50, 60});
  EXPECT_EQ(order(r), (std::vector<NodeId>{0}));
}

TEST(OrderedTopk, KEqualsNOrdersEverything) {
  Rig r("ordered", 4, 4, 11);
  r.init({20, 40, 10, 30});
  EXPECT_EQ(order(r), (std::vector<NodeId>{1, 3, 0, 2}));
  // Swap two nodes; order must follow.
  r.step({45, 40, 10, 30});
  EXPECT_EQ(order(r), (std::vector<NodeId>{0, 1, 3, 2}));
}

TEST(OrderedTopk, LongWalkOrderAlwaysCorrect) {
  exp::Scenario sc = ordered_scenario(10, 4, 1'000, 13);
  sc.stream.family = StreamFamily::kRandomWalk;
  sc.stream.walk.max_step = 3'000;
  EXPECT_TRUE(exp::run_scenario(sc).correct);
}

TEST(OrderedTopk, SinusoidalRotationsCorrect) {
  exp::Scenario sc = ordered_scenario(8, 3, 600, 15);
  sc.stream.family = StreamFamily::kSinusoidal;
  sc.stream.sinus.period = 80.0;
  sc.stream.sinus.amplitude = 400.0;
  EXPECT_TRUE(exp::run_scenario(sc).correct);
}

TEST(OrderedTopk, CostsMoreThanUnorderedVariant) {
  // Maintaining the order cannot be cheaper than maintaining just the set
  // on order-churny inputs (E10 quantifies the overhead).
  exp::Scenario sc = ordered_scenario(12, 4, 500, 17);
  sc.stream.family = StreamFamily::kRandomWalk;
  sc.stream.walk.max_step = 10'000;
  const auto r1 = exp::run_scenario(sc);

  sc.monitor = "topk_filter";
  sc.validate_order = false;
  const auto r2 = exp::run_scenario(sc);

  EXPECT_TRUE(r1.correct);
  EXPECT_TRUE(r2.correct);
  EXPECT_GE(r1.comm.total(), r2.comm.total());
}

}  // namespace
}  // namespace topkmon
