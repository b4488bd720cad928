// Edge-case battery shared across all monitoring algorithms: tiny systems,
// extreme magnitudes, frozen streams, step discontinuities, negative
// values, and n = 1 degeneracies — every monitor through exp::run_scenario.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/ground_truth.hpp"
#include "core/multik_roles.hpp"
#include "exp/scenario.hpp"
#include "native_rig.hpp"
#include "streams/trace.hpp"

namespace topkmon {
namespace {

const std::string kAllMonitors[] = {"topk_filter", "naive",   "recompute",
                                    "dominance",   "slack",   "ordered",
                                    "approx"};

exp::Scenario edge_scenario(const std::string& monitor, std::size_t n,
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

/// Runs `sc` over `trace` (steps = trace length - 1) and returns the
/// result; `final_answer` receives the coordinator's last answer.
RunResult run_trace(exp::Scenario sc, const TraceMatrix& trace,
                    std::vector<NodeId>* final_answer = nullptr) {
  sc.steps = trace.steps() - 1;
  sc.record_series = true;
  if (final_answer != nullptr) {
    sc.on_step = [final_answer](TimeStep, const std::vector<Value>&,
                                const std::vector<NodeId>& answer) {
      *final_answer = answer;
    };
  }
  auto streams = trace.to_stream_set();
  return exp::run_scenario(sc, streams);
}

class AllMonitors : public ::testing::TestWithParam<std::string> {};

TEST_P(AllMonitors, SingleNodeSystem) {
  exp::Scenario sc = edge_scenario(GetParam(), 1, 1, 50, 3);
  sc.stream.family = StreamFamily::kRandomWalk;
  std::vector<NodeId> answer;
  sc.on_step = [&](TimeStep, const std::vector<Value>&,
                   const std::vector<NodeId>& a) { answer = a; };
  const auto r = exp::run_scenario(sc);
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(answer, (std::vector<NodeId>{0}));
}

TEST_P(AllMonitors, TwoNodesRepeatedSwaps) {
  TraceMatrix trace(2, 40);
  for (std::size_t t = 0; t < 40; ++t) {
    trace.at(t, 0) = (t % 2 == 0) ? 100 : 10;
    trace.at(t, 1) = (t % 2 == 0) ? 10 : 100;
  }
  const auto r = run_trace(edge_scenario(GetParam(), 2, 1, 0, 5), trace);
  EXPECT_TRUE(r.correct);
}

TEST_P(AllMonitors, FrozenStreamsGoQuietAfterInit) {
  TraceMatrix trace(6, 30);
  for (std::size_t t = 0; t < 30; ++t) {
    for (NodeId i = 0; i < 6; ++i) {
      trace.at(t, i) = 100 * (static_cast<Value>(i) + 1);
    }
  }
  const auto r = run_trace(edge_scenario(GetParam(), 6, 2, 0, 7), trace);
  const auto after_init = r.comm.series().at(0);
  if (GetParam() == "naive" || GetParam() == "recompute") {
    EXPECT_GT(r.comm.total(), after_init);  // these always pay
  } else {
    EXPECT_EQ(r.comm.total(), after_init)
        << GetParam() << " must be silent on frozen values";
  }
}

TEST_P(AllMonitors, NegativeValueRegime) {
  exp::Scenario sc = edge_scenario(GetParam(), 8, 2, 300, 9);
  sc.stream.family = StreamFamily::kRandomWalk;
  sc.stream.walk.lo = -2'000'000;
  sc.stream.walk.hi = -1'000'000;
  sc.stream.walk.max_step = 3'000;
  EXPECT_TRUE(exp::run_scenario(sc).correct);
}

TEST_P(AllMonitors, HugeMagnitudeJumps) {
  // Alternating extreme magnitudes (quarter of the int64 range so the
  // distinctness transform and midpoints stay exact).
  const Value big = std::numeric_limits<Value>::max() / 8;
  TraceMatrix trace(4, 20);
  for (std::size_t t = 0; t < 20; ++t) {
    trace.at(t, 0) = (t % 3 == 0) ? big : -big;
    trace.at(t, 1) = big / 2;
    trace.at(t, 2) = -big / 2;
    trace.at(t, 3) = static_cast<Value>(t);
  }
  const auto r = run_trace(edge_scenario(GetParam(), 4, 1, 0, 11), trace);
  EXPECT_TRUE(r.correct);
}

TEST_P(AllMonitors, KJustBelowN) {
  exp::Scenario sc = edge_scenario(GetParam(), 8, 7, 300, 13);
  sc.stream.family = StreamFamily::kRandomWalk;
  sc.stream.walk.max_step = 5'000;
  EXPECT_TRUE(exp::run_scenario(sc).correct);
}

INSTANTIATE_TEST_SUITE_P(Battery, AllMonitors,
                         ::testing::ValuesIn(kAllMonitors),
                         [](const ::testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

// ---------------------------------------------------------------------------
// Cross-monitor sanity on one shared trace: every algorithm answers the
// same (correct) sets at every step of a churny hand-made trace.
// ---------------------------------------------------------------------------

TEST(MonitorAgreement, AllAlgorithmsAgreeOnChurnyTrace) {
  TraceMatrix trace(5, 60);
  Rng rng(17);
  for (std::size_t t = 0; t < 60; ++t) {
    for (NodeId i = 0; i < 5; ++i) {
      trace.at(t, i) = rng.uniform_int(0, 50) * 5 + i;  // distinct, churny
    }
  }
  std::vector<std::vector<NodeId>> answers;
  for (const auto& name : kAllMonitors) {
    std::vector<NodeId> answer;
    const auto r = run_trace(edge_scenario(name, 5, 2, 0, 21), trace, &answer);
    EXPECT_TRUE(r.correct) << name;
    answers.push_back(answer);
  }
  for (std::size_t i = 1; i < answers.size(); ++i) {
    EXPECT_EQ(answers[i], answers[0]);
  }
}

// ---------------------------------------------------------------------------
// MultiK-specific edges not covered by its main test file.
// ---------------------------------------------------------------------------

TEST(MultiKEdges, SingleNodeSingleK) {
  rig::Rig r("multi_k?ks=1", 1, 1);
  r.init({5});  // k == n: degenerate
  EXPECT_EQ(r.coord<MultiKCoordinator>().topk_for(1), (std::vector<NodeId>{0}));
  EXPECT_EQ(r.comm().total(), 0u);
}

TEST(MultiKEdges, DenseBoundaries) {
  // Every rank is a boundary: equivalent to full-order tracking.
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  spec.walk.max_step = 4'000;
  auto streams = make_stream_set(spec, 6, 23);
  rig::Rig r("multi_k?ks=1+2+3+4+5", 1, 6, 23);
  std::vector<Value> values(6);
  const auto observe = [&] {
    for (NodeId i = 0; i < 6; ++i) values[i] = streams.advance(i);
  };
  observe();
  r.init(values);
  const auto& m = r.coord<MultiKCoordinator>();
  for (TimeStep t = 1; t <= 300; ++t) {
    observe();
    r.step(values);
    for (std::size_t k = 1; k <= 5; ++k) {
      ASSERT_EQ(m.topk_for(k), true_topk_set(r.cluster(), k))
          << "k=" << k << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace topkmon
