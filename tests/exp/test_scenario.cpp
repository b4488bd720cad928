// The Scenario layer: registry spec parsing, declarative construction,
// run_scenario semantics across network policies, and the graceful-
// degradation properties of the native role implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "exp/monitor_registry.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"

namespace topkmon {
namespace {

using exp::Scenario;
using exp::run_scenario;

Scenario base_scenario(const std::string& monitor) {
  Scenario sc;
  sc.monitor = monitor;
  sc.stream.family = StreamFamily::kRandomWalk;
  sc.stream.walk.max_step = 10'000;
  sc.n = 16;
  sc.k = 4;
  sc.steps = 150;
  sc.seed = 21;
  return sc;
}

TEST(MonitorSpecTest, ParameterizedSpecsConstruct) {
  Cluster cluster(8, 1);
  for (const char* spec :
       {"topk_filter", "topk_filter?nobeacon", "slack?alpha=0.25,adaptive",
        "approx?eps=100", "multi_k?ks=1+2+4", "naive_chg", "ordered",
        "dominance", "recompute?nobeacon=true"}) {
    SCOPED_TRACE(spec);
    EXPECT_TRUE(exp::is_known_monitor(spec));
    EXPECT_NE(exp::make_role_pair(cluster, spec, 2).coordinator, nullptr);
  }
}

TEST(MonitorSpecTest, MalformedSpecsThrow) {
  Cluster cluster(8, 1);
  for (const char* spec : {"no_such_monitor", "topk_filter?bogus=1",
                           "slack?alpha=abc", "multi_k?ks="}) {
    SCOPED_TRACE(spec);
    EXPECT_THROW(exp::make_role_pair(cluster, spec, 2),
                 std::invalid_argument);
  }
  EXPECT_FALSE(exp::is_known_monitor("no_such_monitor"));
  EXPECT_TRUE(exp::is_known_monitor("topk_filter?bogus=1"));  // base name
}

TEST(MonitorSpecTest, NativeListMatchesRolePairs) {
  // Every registered name builds a full native deployment: a coordinator
  // plus one node algorithm per cluster node.
  Cluster cluster(4, 1);
  for (const auto& name : exp::all_monitor_names()) {
    const auto pair = exp::make_role_pair(cluster, name, 2);
    EXPECT_NE(pair.coordinator, nullptr) << name;
    EXPECT_EQ(pair.nodes.size(), cluster.size()) << name;
    for (const auto& node : pair.nodes) EXPECT_NE(node, nullptr) << name;
  }
}

TEST(ScenarioTest, FluentHelpersParseNames) {
  Scenario sc;
  sc.with_monitor("naive").with_stream_family("zipf").with_network(
      "delay=2,ticks=8");
  EXPECT_EQ(sc.monitor, "naive");
  EXPECT_EQ(sc.stream.family, StreamFamily::kZipf);
  EXPECT_EQ(sc.network.delay, 2u);
  EXPECT_EQ(sc.network.ticks_per_step, 8u);
  EXPECT_THROW(sc.with_stream_family("nope"), std::invalid_argument);
  EXPECT_THROW(sc.with_network("warp=1"), std::invalid_argument);
}

TEST(ScenarioTest, RunsAreDeterministic) {
  for (const char* net :
       {"instant", "delay=2", "drop=0.1", "delay=1,ticks=4"}) {
    SCOPED_TRACE(net);
    Scenario sc = base_scenario("topk_filter");
    sc.with_network(net);
    sc.throw_on_error = false;
    const auto a = run_scenario(sc);
    const auto b = run_scenario(sc);
    EXPECT_EQ(a.comm.total(), b.comm.total());
    EXPECT_EQ(a.comm.upstream(), b.comm.upstream());
    EXPECT_EQ(a.error_steps, b.error_steps);
    EXPECT_EQ(a.network, parse_network_spec(net).name());
  }
}

TEST(ScenarioTest, FilterStaysExactUnderPureDelay) {
  // Run-to-quiescence + lossless delay: sessions wait out the lag, so
  // Algorithm 1 must remain strictly correct — latency alone costs
  // messages (weaker beacon pruning), never answers.
  Scenario instant = base_scenario("topk_filter");
  const auto r0 = run_scenario(instant);

  Scenario delayed = base_scenario("topk_filter");
  delayed.with_network("delay=3");
  const auto r3 = run_scenario(delayed);  // throws on any divergence

  EXPECT_TRUE(r3.correct);
  EXPECT_GE(r3.comm.upstream(), r0.comm.upstream());
}

TEST(ScenarioTest, NaiveGoesStaleOnceDelayExceedsCadence) {
  // iid uniform reshuffles the top-k almost every step, so a replica even
  // one observation behind is almost always wrong.
  Scenario on_time = base_scenario("naive");
  on_time.stream.family = StreamFamily::kIidUniform;
  on_time.with_network("delay=2,ticks=4");
  on_time.throw_on_error = false;
  EXPECT_EQ(run_scenario(on_time).error_steps, 0u);

  Scenario late = base_scenario("naive");
  late.stream.family = StreamFamily::kIidUniform;
  late.with_network("delay=12,ticks=4");
  late.throw_on_error = false;
  EXPECT_GT(run_scenario(late).error_steps, 100u);
}

TEST(ScenarioTest, LossIsRecordedNotThrownWhenTolerated) {
  Scenario sc = base_scenario("topk_filter");
  sc.with_network("drop=0.2");
  sc.throw_on_error = false;
  const auto r = run_scenario(sc);
  EXPECT_EQ(r.steps_executed, sc.steps + 1);
  EXPECT_GT(r.error_steps, 0u);   // 20% loss must hurt a stateful monitor
  EXPECT_FALSE(r.correct);
  EXPECT_DOUBLE_EQ(r.error_rate(),
                   static_cast<double>(r.error_steps) /
                       static_cast<double>(r.steps_executed));
}

TEST(ScenarioTest, RejectsInvalidShapes) {
  Scenario sc = base_scenario("topk_filter");
  sc.k = 0;
  EXPECT_THROW(run_scenario(sc), std::invalid_argument);
  sc.k = sc.n + 1;
  EXPECT_THROW(run_scenario(sc), std::invalid_argument);
}

TEST(SweepGridTest, NetworkAxisMultipliesCellsButNotSeeds) {
  exp::SweepGrid grid;
  grid.ns = {8};
  grid.ks = {2};
  grid.monitors = {"naive"};
  grid.families = {StreamFamily::kRandomWalk};
  grid.networks = {NetworkSpec{}, parse_network_spec("delay=1")};
  grid.trials = 2;
  grid.steps = 10;

  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), grid.size());
  ASSERT_EQ(specs.size(), 4u);
  // Same trial under different networks replays the same seed (paired
  // comparison); different trials differ.
  EXPECT_EQ(specs[0].cfg.seed, specs[2].cfg.seed);
  EXPECT_EQ(specs[1].cfg.seed, specs[3].cfg.seed);
  EXPECT_NE(specs[0].cfg.seed, specs[1].cfg.seed);
  EXPECT_TRUE(specs[0].network.is_instant());
  EXPECT_EQ(specs[2].network.delay, 1u);

  // And the engine runs them end to end.
  exp::SweepRunner runner(1);
  const auto results = runner.run(specs);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].comm.total(), results[2].comm.total());
}

}  // namespace
}  // namespace topkmon
