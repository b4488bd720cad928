// Tests for the experiment runner (exp::run_scenario, both overloads) and
// the competitive-ratio helper.
#include "core/runner.hpp"

#include <gtest/gtest.h>

#include "exp/scenario.hpp"
#include "streams/factory.hpp"
#include "streams/trace.hpp"

namespace topkmon {
namespace {

exp::Scenario runner_scenario(const std::string& monitor, std::size_t n,
                              std::size_t k, std::size_t steps,
                              std::uint64_t seed) {
  exp::Scenario sc;
  sc.monitor = monitor;
  sc.n = n;
  sc.k = k;
  sc.steps = steps;
  sc.seed = seed;
  return sc;
}

/// A run whose answers go stale: the naive monitor on a network that
/// drops 90% of its reports while every node jumps far each step.
exp::Scenario stale_scenario() {
  exp::Scenario sc = runner_scenario("naive", 6, 2, 100, 3);
  sc.stream.family = StreamFamily::kRandomWalk;
  sc.stream.walk.max_step = 50'000;
  sc.with_network("drop=0.9");
  return sc;
}

TEST(Runner, RejectsMismatchedStreamCount) {
  auto streams = make_stream_set(StreamSpec{}, 4, 1);
  const exp::Scenario sc = runner_scenario("topk_filter", 8, 2, 10, 1);
  EXPECT_THROW(exp::run_scenario(sc, streams), std::invalid_argument);
}

TEST(Runner, RejectsBadK) {
  auto streams = make_stream_set(StreamSpec{}, 4, 1);
  exp::Scenario sc = runner_scenario("topk_filter", 4, 0, 10, 1);
  EXPECT_THROW(exp::run_scenario(sc, streams), std::invalid_argument);
  EXPECT_THROW(exp::run_scenario(sc), std::invalid_argument);
  sc.k = 5;
  EXPECT_THROW(exp::run_scenario(sc, streams), std::invalid_argument);
  EXPECT_THROW(exp::run_scenario(sc), std::invalid_argument);
}

TEST(Runner, ExecutesConfiguredSteps) {
  auto streams = make_stream_set(StreamSpec{}, 4, 2);
  const auto r =
      exp::run_scenario(runner_scenario("topk_filter", 4, 2, 77, 2), streams);
  EXPECT_EQ(r.steps_executed, 78u);  // init + 77 steps
  EXPECT_EQ(r.monitor_name, "topk_filter");
}

TEST(Runner, ThrowsOnDivergenceByDefault) {
  EXPECT_THROW(exp::run_scenario(stale_scenario()), std::logic_error);
}

TEST(Runner, RecordsDivergenceWhenNotThrowing) {
  exp::Scenario sc = stale_scenario();
  sc.throw_on_error = false;
  const auto r = exp::run_scenario(sc);
  EXPECT_FALSE(r.correct);
  EXPECT_TRUE(r.first_error_step.has_value());
  EXPECT_EQ(r.error_steps, r.error_step_list.size());
}

TEST(Runner, ValidationOffAcceptsAnything) {
  exp::Scenario sc = stale_scenario();
  sc.validation = RunConfig::Validation::kOff;
  const auto r = exp::run_scenario(sc);
  EXPECT_TRUE(r.correct);
}

TEST(Runner, TraceRecordingMatchesStreams) {
  auto streams = make_stream_set(StreamSpec{}, 3, 5);
  auto replay = make_stream_set(StreamSpec{}, 3, 5);
  exp::Scenario sc = runner_scenario("topk_filter", 3, 1, 20, 5);
  sc.record_trace = true;
  const auto r = exp::run_scenario(sc, streams);
  ASSERT_TRUE(r.trace.has_value());
  EXPECT_EQ(r.trace->steps(), 21u);
  for (std::size_t t = 0; t <= 20; ++t) {
    for (NodeId i = 0; i < 3; ++i) {
      EXPECT_EQ(r.trace->at(t, i), replay.advance(i));
    }
  }
}

TEST(Runner, SeriesRecordingWorks) {
  exp::Scenario sc = runner_scenario("naive", 4, 2, 10, 7);
  sc.record_series = true;
  const auto r = exp::run_scenario(sc);
  ASSERT_EQ(r.comm.series().size(), 11u);
  for (const auto per_step : r.comm.series()) {
    EXPECT_EQ(per_step, 4u);  // naive: n messages every step
  }
}

TEST(Runner, CompetitiveRatioRequiresTrace) {
  RunResult r;
  EXPECT_THROW(competitive_ratio(r, 2), std::invalid_argument);
}

TEST(Runner, CompetitiveRatioFiniteOnSilentTrace) {
  // Frozen values: OPT needs zero updates.
  TraceMatrix frozen(4, 51);
  for (std::size_t t = 0; t < 51; ++t) {
    for (NodeId i = 0; i < 4; ++i) frozen.at(t, i) = 10 * (i + 1);
  }
  auto streams = frozen.to_stream_set();
  exp::Scenario sc = runner_scenario("topk_filter", 4, 2, 50, 9);
  sc.record_trace = true;
  const auto r = exp::run_scenario(sc, streams);
  const double ratio = competitive_ratio(r, 2);
  EXPECT_GT(ratio, 0.0);  // algorithm paid initialization, OPT epsilon
}

TEST(Runner, MessagesPerStep) {
  const auto r = exp::run_scenario(runner_scenario("naive", 4, 1, 9, 11));
  EXPECT_DOUBLE_EQ(r.messages_per_step(), 4.0);
}

}  // namespace
}  // namespace topkmon
