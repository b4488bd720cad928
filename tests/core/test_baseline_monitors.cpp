// Tests for the naive, recompute and slack baseline monitors (native role
// pairs, driven through exp::run_scenario or by hand).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/naive_roles.hpp"
#include "core/recompute_roles.hpp"
#include "core/slack_roles.hpp"
#include "exp/scenario.hpp"
#include "native_rig.hpp"

namespace topkmon {
namespace {

using rig::Rig;

exp::Scenario walk_scenario(const std::string& monitor, std::size_t n,
                            std::size_t k, std::size_t steps,
                            std::uint64_t seed, Value step = 2'000) {
  exp::Scenario sc;
  sc.monitor = monitor;
  sc.stream.family = StreamFamily::kRandomWalk;
  sc.stream.walk.max_step = step;
  sc.n = n;
  sc.k = k;
  sc.steps = steps;
  sc.seed = seed;
  return sc;
}

// ---------------------------------------------------------------- naive --

TEST(NaiveMonitor, RejectsBadK) {
  EXPECT_THROW(NaiveCoordinator(0, false), std::invalid_argument);
}

TEST(NaiveMonitor, AlwaysCorrectOnWalks) {
  const auto result = exp::run_scenario(walk_scenario("naive", 8, 3, 300, 5));
  EXPECT_TRUE(result.correct);
}

TEST(NaiveMonitor, SendsNPerStep) {
  const auto result = exp::run_scenario(walk_scenario("naive", 8, 2, 100, 7));
  // Every node reports every step (101 steps including init).
  EXPECT_EQ(result.comm.upstream(), 8u * 101u);
  EXPECT_EQ(result.comm.broadcast(), 0u);
}

TEST(NaiveMonitor, OnChangeVariantSendsLess) {
  // Rotating-max streams keep most nodes constant most of the time.
  exp::Scenario sc = walk_scenario("naive", 8, 2, 200, 9);
  sc.stream.family = StreamFamily::kRotatingMax;
  sc.stream.enforce_distinct = false;
  const auto r1 = exp::run_scenario(sc);
  sc.monitor = "naive_chg";
  const auto r2 = exp::run_scenario(sc);

  EXPECT_TRUE(r1.correct);
  EXPECT_TRUE(r2.correct);
  EXPECT_LT(r2.comm.total(), r1.comm.total() / 2);
}

TEST(NaiveMonitor, NamesDistinguishVariants) {
  EXPECT_EQ(NaiveCoordinator(1, false).name(), "naive");
  EXPECT_EQ(NaiveCoordinator(1, true).name(), "naive_on_change");
}

// ------------------------------------------------------------ recompute --

TEST(RecomputeMonitor, RejectsBadK) {
  EXPECT_THROW(RecomputeCoordinator(0), std::invalid_argument);
  Rig r("recompute", 5, 3);
  EXPECT_THROW(r.init({1, 2, 3}), std::invalid_argument);
}

TEST(RecomputeMonitor, AlwaysCorrectOnWalks) {
  const auto result =
      exp::run_scenario(walk_scenario("recompute", 10, 3, 300, 11));
  EXPECT_TRUE(result.correct);
}

TEST(RecomputeMonitor, AlwaysCorrectOnRotatingMax) {
  exp::Scenario sc = walk_scenario("recompute", 8, 2, 200, 13);
  sc.stream = StreamSpec{};
  sc.stream.family = StreamFamily::kRotatingMax;
  const auto result = exp::run_scenario(sc);
  EXPECT_TRUE(result.correct);
}

TEST(RecomputeMonitor, CostsEveryStepEvenWhenStill) {
  // Constant values: filters would be silent, recompute still pays.
  const auto result = exp::run_scenario(
      walk_scenario("recompute", 8, 2, 100, 15, /*step=*/0));
  EXPECT_TRUE(result.correct);
  // k protocol runs per step, each with >= 1 report + >= 1 announce.
  EXPECT_GE(result.comm.total(), 100u * 2u * 2u);
  EXPECT_EQ(result.monitor.protocol_runs, 101u * 2u);
}

// ---------------------------------------------------------------- slack --

TEST(SlackMonitor, RejectsBadParams) {
  EXPECT_THROW(SlackCoordinator(0), std::invalid_argument);
  SlackCoordinator::Options bad;
  bad.alpha = 0.0;
  EXPECT_THROW(SlackCoordinator(1, bad), std::invalid_argument);
  bad.alpha = 1.0;
  EXPECT_THROW(SlackCoordinator(1, bad), std::invalid_argument);
}

TEST(SlackMonitor, NamesDistinguishVariants) {
  SlackCoordinator::Options opts;
  opts.adaptive = true;
  EXPECT_EQ(SlackCoordinator(1).name(), "slack_fixed");
  EXPECT_EQ(SlackCoordinator(1, opts).name(), "slack_adaptive");
}

TEST(SlackMonitor, CorrectOnWalks) {
  const auto result = exp::run_scenario(walk_scenario("slack", 10, 3, 500, 17));
  EXPECT_TRUE(result.correct);
}

TEST(SlackMonitor, CorrectWithAsymmetricAlpha) {
  for (const std::string alpha : {"0.1", "0.9"}) {
    const auto result = exp::run_scenario(
        walk_scenario("slack?alpha=" + alpha, 10, 3, 400, 19));
    EXPECT_TRUE(result.correct) << "alpha=" << alpha;
  }
}

TEST(SlackMonitor, AdaptiveVariantCorrect) {
  const auto result =
      exp::run_scenario(walk_scenario("slack?adaptive", 10, 3, 500, 21));
  EXPECT_TRUE(result.correct);
}

TEST(SlackMonitor, BoundaryWithinGapAfterInit) {
  Rig r("slack", 2, 4, 23);
  r.init({100, 80, 20, 10});
  EXPECT_GE(r.coord<SlackCoordinator>().boundary(), 20);
  EXPECT_LE(r.coord<SlackCoordinator>().boundary(), 80);
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{0, 1}));
}

TEST(SlackMonitor, DegenerateKEqualsNSilent) {
  Rig r("slack", 3, 3);
  r.init({5, 6, 7});
  EXPECT_EQ(r.comm().total(), 0u);
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{0, 1, 2}));
}

TEST(SlackMonitor, UsesPollsNotProtocols) {
  const auto result = exp::run_scenario(
      walk_scenario("slack", 10, 3, 300, 25, /*step=*/20'000));
  EXPECT_TRUE(result.correct);
  EXPECT_GT(result.monitor.polls, 0u);
  EXPECT_EQ(result.monitor.protocol_runs, 0u);
}

}  // namespace
}  // namespace topkmon
