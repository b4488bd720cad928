// Tests for the ε-approximate monitor ("approx?eps=<ε>", the filter role
// pair with widened boundaries): ε-validity at every step, message
// savings vs the exact monitor, and the ε = 0 degeneration.
#include <gtest/gtest.h>

#include <string>

#include "core/ground_truth.hpp"
#include "exp/scenario.hpp"
#include "native_rig.hpp"

namespace topkmon {
namespace {

using rig::Rig;

std::string approx(Value eps) { return "approx?eps=" + std::to_string(eps); }

TEST(ApproxMonitor, RejectsBadParams) {
  EXPECT_THROW(Rig("approx", 0, 4), std::invalid_argument);
  EXPECT_THROW(Rig(approx(-1), 2, 4), std::invalid_argument);
}

TEST(ApproxMonitor, EpsValidityHelpers) {
  const std::vector<Value> values{100, 95, 90};
  // {1} is not exact top-1 but is 5-valid and 10-valid.
  EXPECT_FALSE(is_valid_topk_eps(values, std::vector<NodeId>{1}, 0));
  EXPECT_TRUE(is_valid_topk_eps(values, std::vector<NodeId>{1}, 5));
  EXPECT_TRUE(is_valid_topk_eps(values, std::vector<NodeId>{1}, 10));
  EXPECT_EQ(topk_regret(values, std::vector<NodeId>{1}), 5);
  EXPECT_EQ(topk_regret(values, std::vector<NodeId>{0}), 0);
  EXPECT_EQ(topk_regret(values, std::vector<NodeId>{2}), 10);
  EXPECT_EQ(topk_regret(values, std::vector<NodeId>{7}), kPlusInf);
}

TEST(ApproxMonitor, ZeroEpsilonIsExactEveryStep) {
  exp::Scenario sc;
  sc.monitor = "approx";  // default epsilon = 0
  sc.stream.family = StreamFamily::kRandomWalk;
  sc.stream.walk.max_step = 3'000;
  sc.n = 10;
  sc.k = 3;
  sc.steps = 600;
  sc.seed = 5;
  const auto r = exp::run_scenario(sc);  // strict validation
  EXPECT_TRUE(r.correct);
}

class ApproxEpsSweep : public ::testing::TestWithParam<Value> {};

TEST_P(ApproxEpsSweep, AlwaysEpsValid) {
  const Value eps = GetParam();
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = 3'000;
  spec.enforce_distinct = false;  // keep raw value scale == eps scale
  auto streams = make_stream_set(spec, 10, 11);
  Rig r(approx(eps), 3, 10, 11);
  std::vector<Value> values(10);
  const auto observe = [&] {
    for (NodeId i = 0; i < 10; ++i) values[i] = streams.advance(i);
  };
  observe();
  r.init(values);
  Value worst_regret = 0;
  for (TimeStep t = 1; t <= 800; ++t) {
    observe();
    r.step(values);
    ASSERT_TRUE(is_valid_topk_eps(values, r.topk(), eps))
        << "eps=" << eps << " t=" << t;
    worst_regret = std::max(worst_regret, topk_regret(values, r.topk()));
  }
  EXPECT_LE(worst_regret, eps);
}

INSTANTIATE_TEST_SUITE_P(Eps, ApproxEpsSweep,
                         ::testing::Values<Value>(0, 1, 7, 100, 5'000,
                                                  100'000));

TEST(ApproxMonitor, LargerEpsilonSendsFewerMessages) {
  auto run_with_eps = [](Value eps) {
    exp::Scenario sc;
    sc.monitor = approx(eps);
    sc.stream.family = StreamFamily::kRandomWalk;
    sc.stream.walk.max_step = 2'000;
    sc.stream.walk.lo = 0;
    sc.stream.walk.hi = 60'000;  // confined: nodes interact constantly
    sc.stream.enforce_distinct = false;
    sc.n = 16;
    sc.k = 4;
    sc.steps = 1'000;
    sc.seed = 13;
    sc.validation = RunConfig::Validation::kOff;  // eps-validity checked above
    return exp::run_scenario(sc).comm.total();
  };
  const auto exact = run_with_eps(0);
  const auto loose = run_with_eps(50'000);
  EXPECT_LT(loose, exact / 2);
}

TEST(ApproxMonitor, HugeEpsilonNearSilent) {
  exp::Scenario sc;
  sc.monitor = approx(1'000'000);  // wider than the whole value range
  sc.stream.family = StreamFamily::kRandomWalk;
  sc.stream.walk.max_step = 500;
  sc.stream.walk.lo = 0;
  sc.stream.walk.hi = 10'000;
  sc.stream.enforce_distinct = false;
  sc.n = 8;
  sc.k = 2;
  sc.steps = 500;
  sc.seed = 17;
  sc.validation = RunConfig::Validation::kOff;
  const auto r = exp::run_scenario(sc);
  // Only initialization traffic; filters can never be violated.
  EXPECT_EQ(r.monitor.violation_steps, 0u);
}

TEST(ApproxMonitor, DegenerateKEqualsN) {
  Rig r(approx(10), 3, 3);
  r.init({0, 0, 0});
  EXPECT_EQ(r.comm().total(), 0u);
  EXPECT_EQ(r.topk(), (std::vector<NodeId>{0, 1, 2}));
}

TEST(ApproxMonitor, OddEpsilonNoLivelock) {
  // With odd eps the boundary re-centering must still terminate (the
  // 2*floor(eps/2) slack rule); drive a node to sit exactly at T+ and
  // check violations do not repeat forever on a static configuration.
  constexpr Value kEps = 7;
  Rig r(approx(kEps), 1, 2, 3);
  r.init({1'001, 0});
  // Drop node 0 just below the widened filter once.
  const Value b = r.coord<FilterCoordinator>().boundary();
  const std::vector<Value> dropped{b - kEps / 2 - 1, 0};
  r.step(dropped);
  const auto msgs_after_first = r.comm().total();
  // Static values afterwards: no further messages may flow.
  for (TimeStep t = 2; t <= 10; ++t) r.step(dropped);
  EXPECT_EQ(r.comm().total(), msgs_after_first);
}

}  // namespace
}  // namespace topkmon
