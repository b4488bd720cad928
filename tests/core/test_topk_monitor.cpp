// Tests for Algorithm 1 (the native topk_filter role pair): correctness on
// hand-crafted traces, filter validity (Lemma 2.2) at quiescence over the
// nodes' own installed filters, reset/halving behaviour, and message
// accounting.
#include <gtest/gtest.h>

#include <vector>

#include "core/filter_roles.hpp"
#include "exp/scenario.hpp"
#include "native_rig.hpp"

namespace topkmon {
namespace {

using rig::Rig;

Value boundary(const Rig& r) { return r.coord<FilterCoordinator>().boundary(); }

TEST(TopkMonitor, RejectsBadK) {
  EXPECT_THROW(FilterCoordinator(0), std::invalid_argument);
  Rig r("topk_filter", 5, 3);
  EXPECT_THROW(r.init({1, 2, 3}), std::invalid_argument);
}

TEST(TopkMonitor, InitializationFindsTopK) {
  Rig r("topk_filter", 2, 5);
  r.init({30, 10, 50, 20, 40});
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{2, 4}));
  // Boundary lies strictly between v_2 = 40 and v_3 = 30.
  EXPECT_GE(boundary(r), 30);
  EXPECT_LE(boundary(r), 40);
  EXPECT_EQ(r.stats().filter_resets, 1u);
}

TEST(TopkMonitor, FiltersValidAfterInitialization) {
  Rig r("topk_filter", 3, 6, 3);
  r.init({1, 6, 3, 9, 2, 8});
  EXPECT_TRUE(r.filters_valid());
}

TEST(TopkMonitor, NoViolationNoMessages) {
  Rig r("topk_filter", 2, 4);
  r.init({100, 80, 20, 10});
  const auto after_init = r.comm().total();
  // Values drift but stay on their side of the boundary.
  r.step({95, 85, 25, 5});
  r.step({99, 81, 22, 12});
  EXPECT_EQ(r.comm().total(), after_init);
  EXPECT_EQ(r.stats().violation_steps, 0u);
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{0, 1}));
}

TEST(TopkMonitor, DetectsSwapAcrossBoundary) {
  Rig r("topk_filter", 2, 4, 7);
  r.init({100, 80, 20, 10});
  // Node 3 rockets to the top; node 1 collapses.
  r.step({100, 5, 20, 500});
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{0, 3}));
  EXPECT_GE(r.stats().filter_resets, 2u);  // init + this step
  EXPECT_TRUE(r.filters_valid());
}

TEST(TopkMonitor, RisingOutsiderOnly) {
  Rig r("topk_filter", 2, 4, 9);
  r.init({100, 80, 20, 10});
  r.step({100, 80, 20, 300});  // node 3 overtakes everything
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{0, 3}));
}

TEST(TopkMonitor, FallingMemberOnly) {
  Rig r("topk_filter", 2, 4, 11);
  r.init({100, 80, 20, 10});
  r.step({100, 1, 20, 10});  // node 1 collapses below node 2
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{0, 2}));
}

TEST(TopkMonitor, MidpointUpdateWithoutSetChange) {
  Rig r("topk_filter", 2, 4, 13);
  r.init({1000, 800, 200, 100});
  const Value m0 = boundary(r);
  // Node 1 sinks toward the boundary but stays above node 2: set unchanged,
  // so the handler should do a midpoint update, not a reset.
  r.step({1000, static_cast<Value>(m0 - 1), 200, 100});
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(r.stats().filter_resets, 1u);  // only the init reset
  EXPECT_GE(r.stats().midpoint_updates, 1u);
  EXPECT_LT(boundary(r), m0);  // boundary moved down toward T-
  EXPECT_TRUE(r.filters_valid());
}

TEST(TopkMonitor, GapHalvingBoundsViolationSteps) {
  // A member creeps down by one each step from a huge initial gap; between
  // resets there can be at most ~log Δ handler calls (Theorem 3.3's
  // counting argument). With Δ = 2^20 expect <= ~21 violation steps.
  const Value kGap = 1 << 20;
  Rig r("topk_filter", 1, 2, 17);
  r.init({kGap, 0});
  std::uint64_t violation_steps = 0;
  Value v0 = kGap;
  for (TimeStep t = 1; t <= 60; ++t) {
    // Keep sinking node 0 just below the current boundary.
    if (v0 > boundary(r) && boundary(r) > 1) {
      v0 = boundary(r) - 1;
    }
    const auto before = r.stats().violation_steps;
    r.step({v0, 0});
    violation_steps += r.stats().violation_steps - before;
    EXPECT_EQ(r.topk(), (std::vector<NodeId>{0}));
    if (r.stats().filter_resets > 1) break;  // reached the bottom
  }
  EXPECT_LE(violation_steps, 25u);
}

TEST(TopkMonitor, DegenerateKEqualsN) {
  Rig r("topk_filter", 3, 3);
  r.init({5, 3, 8});
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(r.comm().total(), 0u);
  r.step({1, 2, 3});
  EXPECT_EQ(r.comm().total(), 0u);
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{0, 1, 2}));
}

TEST(TopkMonitor, KEqualsOneMaxTracking) {
  Rig r("topk_filter", 1, 8, 21);
  r.init({10, 20, 30, 40, 50, 60, 70, 80});
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{7}));
  r.step({10, 20, 30, 40, 50, 60, 900, 80});
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{6}));
}

TEST(TopkMonitor, BothSidesViolateSimultaneously) {
  Rig r("topk_filter", 2, 4, 23);
  r.init({100, 80, 20, 10});
  // Node 1 falls below the boundary while node 2 rises above it.
  const Value b = boundary(r);
  r.step({100, b - 5, b + 5, 10});
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{0, 2}));
  EXPECT_TRUE(r.filters_valid());
}

TEST(TopkMonitor, TPlusAndTMinusTracked) {
  Rig r("topk_filter", 1, 2, 25);
  r.init({1000, 0});
  const auto& coord = r.coord<FilterCoordinator>();
  EXPECT_EQ(coord.t_plus(), 1000);
  EXPECT_EQ(coord.t_minus(), 0);
  // Sink node 0 a bit: T+ must follow down.
  r.step({static_cast<Value>(coord.boundary() - 1), 0});
  EXPECT_LT(coord.t_plus(), 1000);
  EXPECT_GE(coord.t_plus(), coord.t_minus());
}

TEST(TopkMonitor, LongRandomWalkStaysCorrect) {
  // End-to-end guard: 2000 steps on random walks, strict validation
  // inside the runner (throws on first divergence).
  exp::Scenario sc;
  sc.monitor = "topk_filter";
  sc.stream.family = StreamFamily::kRandomWalk;
  sc.stream.walk.max_step = 2'000;
  sc.n = 12;
  sc.k = 3;
  sc.steps = 2'000;
  sc.seed = 77;
  const auto result = exp::run_scenario(sc);
  EXPECT_TRUE(result.correct);
  EXPECT_GT(result.comm.total(), 0u);
}

TEST(TopkMonitor, SuppressedBeaconsStillCorrect) {
  exp::Scenario sc;
  sc.monitor = "topk_filter?nobeacon";
  sc.stream.family = StreamFamily::kRandomWalk;
  sc.stream.walk.max_step = 5'000;
  sc.n = 10;
  sc.k = 2;
  sc.steps = 800;
  sc.seed = 31;
  const auto result = exp::run_scenario(sc);
  EXPECT_TRUE(result.correct);
}

}  // namespace
}  // namespace topkmon
