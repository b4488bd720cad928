// The PR6 parallel-tick determinism contract: SimDriver with workers > 1
// partitions the node bitset words into per-worker ranges, stages every
// cross-shard side effect (sends, signals, armed-counter deltas, drain
// accounting) into per-thread buffers, and replays them in shard-major =
// ascending-node order at the tick barrier — so the run is byte-identical
// to workers = 1: same messages by direction and kind, same seq stamps
// (hence identical delivery schedules under jitter/drop), same monitor
// counters, same per-step answers, same error pattern. These tests pin
// that contract across native monitors, instant + scheduled networks,
// sparse + dense workloads and loops, and the uneven word-range edge
// cases (n not divisible by 64·W, W > words(n), empty shards).
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "exp/monitor_registry.hpp"
#include "exp/scenario.hpp"
#include "sim/message.hpp"

namespace topkmon {
namespace {

using exp::Scenario;
using exp::run_scenario;

struct TickTrace {
  RunResult result;
  std::vector<std::vector<NodeId>> answers;
};

TickTrace run_workers(const std::string& monitor, const std::string& family,
                      const std::string& network, std::size_t workers,
                      std::size_t n = 24, bool dense = false) {
  Scenario sc;
  sc.monitor = monitor;
  sc.with_stream_family(family);
  sc.stream.walk.max_step = 5'000;
  sc.with_network(network);
  sc.n = n;
  sc.k = 5;
  sc.steps = 120;
  sc.seed = 77;
  sc.workers = workers;
  sc.dense_loop = dense;
  // Lossy / budgeted networks legitimately diverge from the ground truth;
  // the invariant under test is that every worker count diverges
  // identically.
  sc.validation = RunConfig::Validation::kWeak;
  sc.throw_on_error = false;
  TickTrace trace;
  sc.on_step = [&trace](TimeStep, const std::vector<Value>&,
                        const std::vector<NodeId>& answer) {
    trace.answers.push_back(answer);
  };
  trace.result = run_scenario(sc);
  return trace;
}

void expect_identical(const TickTrace& serial, const TickTrace& parallel,
                      std::size_t workers) {
  SCOPED_TRACE("workers=" + std::to_string(workers));

  // Messages: totals, directions, and every kind. A staged send replayed
  // out of serial order gets a different seq stamp, which perturbs the
  // jitter/drop hash and shifts these immediately.
  EXPECT_EQ(serial.result.comm.total(), parallel.result.comm.total());
  EXPECT_EQ(serial.result.comm.upstream(), parallel.result.comm.upstream());
  EXPECT_EQ(serial.result.comm.unicast(), parallel.result.comm.unicast());
  EXPECT_EQ(serial.result.comm.broadcast(), parallel.result.comm.broadcast());
  for (std::size_t k = 0; k < kNumMsgKinds; ++k) {
    EXPECT_EQ(serial.result.comm.by_kind(static_cast<MsgKind>(k)),
              parallel.result.comm.by_kind(static_cast<MsgKind>(k)))
        << msg_kind_name(static_cast<MsgKind>(k));
  }

  // Monitor counters (fed by the staged signal queue, replayed in shard
  // order = the serial raise order).
  EXPECT_EQ(serial.result.monitor.violation_steps,
            parallel.result.monitor.violation_steps);
  EXPECT_EQ(serial.result.monitor.violations,
            parallel.result.monitor.violations);
  EXPECT_EQ(serial.result.monitor.protocol_runs,
            parallel.result.monitor.protocol_runs);
  EXPECT_EQ(serial.result.monitor.filter_resets,
            parallel.result.monitor.filter_resets);
  EXPECT_EQ(serial.result.monitor.full_rebuilds,
            parallel.result.monitor.full_rebuilds);

  // Validation outcome and the answer itself, step by step.
  EXPECT_EQ(serial.result.error_steps, parallel.result.error_steps);
  EXPECT_EQ(serial.result.correct, parallel.result.correct);
  EXPECT_EQ(serial.result.first_error_step, parallel.result.first_error_step);
  ASSERT_EQ(serial.answers.size(), parallel.answers.size());
  for (std::size_t t = 0; t < serial.answers.size(); ++t) {
    EXPECT_EQ(serial.answers[t], parallel.answers[t]) << "step " << t;
  }
}

void expect_workers_equivalent(const std::string& monitor,
                               const std::string& family,
                               const std::string& network) {
  SCOPED_TRACE(monitor + " / " + family + " / " + network);
  const TickTrace serial = run_workers(monitor, family, network, 1);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    expect_identical(serial, run_workers(monitor, family, network, workers),
                     workers);
  }
}

const std::vector<std::string>& workloads() {
  // One quiet-capable family (activity interface + sparse observe) and
  // one dense stochastic family (previous-value compare path).
  static const std::vector<std::string> w{
      "sparse?rate=0.2,inner=random_walk", "random_walk"};
  return w;
}

TEST(ParallelTick, NativeMonitorsOnInstant) {
  for (const char* monitor : {"topk_filter", "topk_filter?nobeacon", "naive",
                              "naive_chg"}) {
    for (const std::string& family : workloads()) {
      expect_workers_equivalent(monitor, family, "instant");
    }
  }
}

TEST(ParallelTick, NativeMonitorsOnScheduledNetworks) {
  for (const char* monitor : {"topk_filter", "naive", "naive_chg"}) {
    for (const char* network :
         {"delay=2,jitter=1", "drop=0.1", "batch=2", "delay=1,drop=0.05",
          "delay=3,ticks=4", "delay=1,jitter=2,ticks=8"}) {
      for (const std::string& family : workloads()) {
        expect_workers_equivalent(monitor, family, network);
      }
    }
  }
}

TEST(ParallelTick, UnevenWordRanges) {
  // Word-aligned partitioning edge cases: n inside one word, n exactly a
  // word multiple, one straggler bit in the last word, n spanning three
  // words — each crossed with worker counts that leave shards short or
  // empty (W > words(n), W far beyond n).
  for (const std::size_t n : {std::size_t{5}, std::size_t{64}, std::size_t{65},
                              std::size_t{130}}) {
    for (const std::size_t workers :
         {std::size_t{2}, std::size_t{8}, std::size_t{33}}) {
      SCOPED_TRACE("n=" + std::to_string(n));
      const TickTrace serial =
          run_workers("topk_filter", "sparse?rate=0.2,inner=random_walk",
                      "delay=1,jitter=2,ticks=8", 1, n);
      expect_identical(
          serial,
          run_workers("topk_filter", "sparse?rate=0.2,inner=random_walk",
                      "delay=1,jitter=2,ticks=8", workers, n),
          workers);
    }
  }
}

TEST(ParallelTick, DenseLoopMatchesSerial) {
  // The legacy dense loop also shards: every node observes each tick, so
  // all shards are full — the maximal-staging stress case.
  for (const char* network : {"instant", "delay=2,jitter=1"}) {
    SCOPED_TRACE(network);
    const TickTrace serial = run_workers("topk_filter", "random_walk", network,
                                         1, 24, /*dense=*/true);
    expect_identical(serial,
                     run_workers("topk_filter", "random_walk", network, 8, 24,
                                 /*dense=*/true),
                     8);
  }
}

TEST(ParallelTick, WorkersZeroResolvesToHardwareConcurrency) {
  // workers = 0 means "all cores" (like --jobs 0); whatever it resolves
  // to must still match the serial run.
  const TickTrace serial =
      run_workers("topk_filter", "sparse?rate=0.2,inner=random_walk",
                  "delay=1,jitter=2,ticks=8", 1);
  expect_identical(serial,
                   run_workers("topk_filter",
                               "sparse?rate=0.2,inner=random_walk",
                               "delay=1,jitter=2,ticks=8", 0),
                   0);
}

TEST(ParallelTick, StrictValidationStaysExactOnInstant) {
  // Beyond mutual equivalence: on the instant network the parallel run
  // must also stay exactly correct against the ground truth.
  Scenario sc;
  sc.monitor = "topk_filter";
  sc.with_stream_family("sparse?rate=0.1,inner=random_walk");
  sc.stream.walk.max_step = 20'000;
  sc.n = 32;
  sc.k = 6;
  sc.steps = 250;
  sc.seed = 5;
  sc.workers = 8;
  sc.validation = RunConfig::Validation::kStrict;
  const RunResult r = run_scenario(sc);  // throws on divergence
  EXPECT_TRUE(r.correct);
}

TEST(ParallelTick, NonNativeMonitorRejectsWorkers) {
  // The driver takes a `native` flag and must refuse `false` (one shared
  // monitor object behind every node) at any worker count.
  Cluster cluster(8, 1);
  exp::RolePair pair = exp::make_role_pair(cluster, "topk_filter", 3);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_THROW(SimDriver(cluster, *pair.coordinator, pair.nodes,
                           /*native=*/false, workers),
                 std::invalid_argument);
  }
}

TEST(ParallelTick, RecomputeWorkersByteIdenticalToSerial) {
  // W = 2 and W = 8 must reproduce the serial run byte for byte, on the
  // instant network and on delayed and lossy ones.
  for (const char* network : {"instant", "delay=2,jitter=1", "drop=0.1"}) {
    for (const char* monitor : {"recompute", "recompute?nobeacon"}) {
      for (const std::string& family : workloads()) {
        expect_workers_equivalent(monitor, family, network);
      }
    }
  }
}

}  // namespace
}  // namespace topkmon
