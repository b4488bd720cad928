// Tests for the multi-k monitor (native role pair): every monitored
// boundary correct at every step, shared resets, degenerate
// configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/ground_truth.hpp"
#include "core/multik_roles.hpp"
#include "exp/scenario.hpp"
#include "native_rig.hpp"

namespace topkmon {
namespace {

using rig::Rig;

const MultiKCoordinator& multi(const Rig& r) {
  return r.coord<MultiKCoordinator>();
}

TEST(MultiK, RejectsBadKs) {
  EXPECT_THROW(MultiKCoordinator({}), std::invalid_argument);
  EXPECT_THROW(MultiKCoordinator({0}), std::invalid_argument);
  EXPECT_THROW(MultiKCoordinator({3, 3}), std::invalid_argument);
  EXPECT_THROW(MultiKCoordinator({4, 2}), std::invalid_argument);
}

TEST(MultiK, RejectsKLargerThanN) {
  Rig r("multi_k?ks=2+9", 2, 5);
  EXPECT_THROW(r.init({1, 2, 3, 4, 5}), std::invalid_argument);
}

TEST(MultiK, InitializationAllBoundaries) {
  Rig r("multi_k?ks=1+3+5", 1, 6);
  r.init({60, 50, 40, 30, 20, 10});
  EXPECT_EQ(multi(r).topk_for(1), (std::vector<NodeId>{0}));
  EXPECT_EQ(multi(r).topk_for(3), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(multi(r).topk_for(5), (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{0}));  // answer = smallest k
  EXPECT_THROW(multi(r).topk_for(2), std::invalid_argument);
}

TEST(MultiK, TrailingKEqualsNIsDegenerate) {
  Rig r("multi_k?ks=2+4", 2, 4);
  r.init({10, 20, 30, 40});
  EXPECT_EQ(multi(r).topk_for(4), (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(multi(r).topk_for(2), (std::vector<NodeId>{2, 3}));
}

TEST(MultiK, OnlyKEqualsNIsFree) {
  Rig r("multi_k?ks=3", 3, 3);
  r.init({0, 0, 0});
  EXPECT_EQ(r.comm().total(), 0u);
  r.step({0, 0, 0});
  EXPECT_EQ(r.comm().total(), 0u);
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{0, 1, 2}));
}

TEST(MultiK, SingleBoundaryMatchesGroundTruthOverWalk) {
  exp::Scenario sc;
  sc.monitor = "multi_k?ks=3";
  sc.stream.family = StreamFamily::kRandomWalk;
  sc.stream.walk.max_step = 5'000;
  sc.n = 10;
  sc.k = 3;
  sc.steps = 800;
  sc.seed = 7;
  EXPECT_TRUE(exp::run_scenario(sc).correct);
}

/// Steps a multi-k rig over `steps` observations of `spec` and checks
/// every boundary in `ks` against the ground truth after each step.
void expect_all_boundaries_exact(const StreamSpec& spec, std::size_t n,
                                 std::uint64_t seed, const std::string& ks,
                                 const std::vector<std::size_t>& kvals,
                                 std::size_t steps, Rig& r) {
  auto streams = make_stream_set(spec, n, seed);
  std::vector<Value> values(n);
  const auto observe = [&] {
    for (NodeId i = 0; i < n; ++i) values[i] = streams.advance(i);
  };
  observe();
  r.init(values);
  for (TimeStep t = 1; t <= steps; ++t) {
    observe();
    r.step(values);
    for (const std::size_t k : kvals) {
      ASSERT_EQ(multi(r).topk_for(k), true_topk_set(r.cluster(), k))
          << ks << " k=" << k << " t=" << t;
    }
  }
}

TEST(MultiK, AllBoundariesCorrectEveryStep) {
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = 4'000;
  Rig r("multi_k?ks=1+4+8", 1, 12, 9);
  expect_all_boundaries_exact(spec, 12, 9, "ks=1+4+8", {1, 4, 8}, 800, r);
}

TEST(MultiK, CorrectOnJumpyStreams) {
  // Bursts regularly cause multi-band jumps -> shared resets; answers must
  // stay exact throughout.
  StreamSpec spec;
  spec.family = StreamFamily::kBursty;
  spec.bursty.p_enter_burst = 0.05;
  spec.bursty.lo = 0;
  spec.bursty.hi = 50'000;  // confined so bursts jump across bands
  spec.bursty.start = 25'000;
  spec.bursty.burst_step = 20'000;
  Rig r("multi_k?ks=2+5", 2, 10, 11);
  expect_all_boundaries_exact(spec, 10, 11, "ks=2+5", {2, 5}, 600, r);
  EXPECT_GT(r.stats().filter_resets, 1u);
}

TEST(MultiK, QuietWhenValuesDriftInsideBands) {
  Rig r("multi_k?ks=2+4", 2, 6, 13);
  r.init({6'000, 5'000, 4'000, 3'000, 2'000, 1'000});
  const auto baseline = r.comm().total();
  r.step({6'050, 5'000, 4'000, 2'960, 2'000, 1'000});
  EXPECT_EQ(r.comm().total(), baseline);
}

TEST(MultiK, SharedResetCheaperThanIndependentMonitors) {
  // Compare against m independent topk_filter deployments on the same
  // reset-heavy workload (iid): the shared k_max+1 selection should beat
  // the sum of per-k selections.
  constexpr std::size_t kN = 64;
  const std::vector<std::size_t> ks{2, 8, 16};
  exp::Scenario sc;
  sc.monitor = "multi_k?ks=2+8+16";
  sc.stream.family = StreamFamily::kIidUniform;
  sc.n = kN;
  sc.k = ks.front();
  sc.steps = 150;
  sc.seed = 15;
  const auto rm = exp::run_scenario(sc);

  std::uint64_t independent_total = 0;
  for (const std::size_t k : ks) {
    exp::Scenario single = sc;
    single.monitor = "topk_filter";
    single.k = k;
    independent_total += exp::run_scenario(single).comm.total();
  }
  EXPECT_LT(rm.comm.total(), independent_total);
}

TEST(MultiK, DeterministicAcrossRuns) {
  auto run_once_total = [] {
    exp::Scenario sc;
    sc.monitor = "multi_k?ks=2+5";
    sc.stream.family = StreamFamily::kSinusoidal;
    sc.n = 10;
    sc.k = 2;
    sc.steps = 300;
    sc.seed = 17;
    return exp::run_scenario(sc).comm.total();
  };
  EXPECT_EQ(run_once_total(), run_once_total());
}

}  // namespace
}  // namespace topkmon
