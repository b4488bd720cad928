// The sharding subsystem's load-bearing guarantees (core/root_merge.hpp):
//
//   1. shards = 1 is THE single-coordinator path, message-for-message:
//      run_sharded_scenario with an inert root tier reproduces the
//      monolithic run_scenario byte-identically — every message of every
//      kind in every step, every protocol coin, every algorithm counter —
//      across all three native monitors and across instant AND scheduled
//      (delay / jitter / drop) networks.
//   2. Sharded exactness: at any c under the instant network the
//      deployment's answer equals the true global top-k every step
//      (strict validation), including the quota edge cases (k < c forces
//      quota-0 shards; k = n forces full shards).
//   3. Determinism: results are byte-identical for every worker count,
//      whether `workers` drives the single shard's tick scan (c = 1) or
//      steps whole shards concurrently (c > 1).
//
// Plus the sweep/CLI surface: the shards axis never enters the trial
// seed (paired comparisons across c), set_axis rejects unknown names
// with a did-you-mean hint, and `?shards=c` monitor params split
// correctly. Suite names contain "Shard" so the TSan CI job picks the
// concurrency-facing tests up by filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ground_truth.hpp"
#include "core/root_merge.hpp"
#include "core/runner.hpp"
#include "exp/monitor_registry.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep_grid.hpp"
#include "sim/network_model.hpp"
#include "streams/factory.hpp"

namespace topkmon {
namespace {

exp::Scenario base_scenario(const std::string& monitor, std::size_t n,
                            std::size_t k, std::uint64_t seed,
                            std::size_t steps) {
  exp::Scenario sc;
  sc.monitor = monitor;
  sc.n = n;
  sc.k = k;
  sc.steps = steps;
  sc.seed = seed;
  // Wide value range: pairwise-distinct values in practice, so strict
  // set equality against the ground truth is meaningful.
  sc.stream.walk.hi = 100'000'000;
  sc.stream.iid_hi = 100'000'000;
  return sc;
}

void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.monitor_name, b.monitor_name);
  EXPECT_EQ(a.steps_executed, b.steps_executed);
  EXPECT_EQ(a.error_steps, b.error_steps);
  EXPECT_EQ(a.correct, b.correct);

  // Communication: every direction, every kind, every step.
  EXPECT_EQ(a.comm.upstream(), b.comm.upstream());
  EXPECT_EQ(a.comm.unicast(), b.comm.unicast());
  EXPECT_EQ(a.comm.broadcast(), b.comm.broadcast());
  for (std::size_t kind = 0; kind < kNumMsgKinds; ++kind) {
    EXPECT_EQ(a.comm.by_kind(static_cast<MsgKind>(kind)),
              b.comm.by_kind(static_cast<MsgKind>(kind)))
        << "kind " << msg_kind_name(static_cast<MsgKind>(kind));
  }
  EXPECT_EQ(a.comm.series(), b.comm.series());

  // Algorithm event counters.
  EXPECT_EQ(a.monitor.violation_steps, b.monitor.violation_steps);
  EXPECT_EQ(a.monitor.violations, b.monitor.violations);
  EXPECT_EQ(a.monitor.handler_calls, b.monitor.handler_calls);
  EXPECT_EQ(a.monitor.midpoint_updates, b.monitor.midpoint_updates);
  EXPECT_EQ(a.monitor.filter_resets, b.monitor.filter_resets);
  EXPECT_EQ(a.monitor.protocol_runs, b.monitor.protocol_runs);
  EXPECT_EQ(a.monitor.polls, b.monitor.polls);
}

TEST(ShardEquivalence, ShardsOneMatchesMonolithicPath) {
  const std::vector<std::string> monitors{"topk_filter", "naive", "naive_chg"};
  const std::vector<std::string> networks{"instant", "delay=1",
                                          "delay=1,jitter=2", "drop=0.2"};
  // Dynamic k too: the single shard rekeys at the monolithic point of the
  // step, and the filter nodes learn each new k from the selection.
  const std::vector<std::string> plans{"none", "churn?k=11@60,k=3@140"};
  for (const auto& monitor : monitors) {
    for (const auto& network : networks) {
      for (const auto& faults : plans) {
        exp::Scenario sc = base_scenario(monitor, 48, 6, 17, 200);
        sc.network = parse_network_spec(network);
        sc.faults = faults;
        sc.shards = 1;
        sc.record_series = true;  // per-step message counts must match too
        if (!sc.network.is_instant()) {
          // Scheduled networks degrade the answer exactly like monolithic
          // native runs; equal error_steps below pins the answers per step.
          sc.validation = RunConfig::Validation::kWeak;
          sc.throw_on_error = false;
        }
        const std::string label = monitor + " / " + network + " / " + faults;
        const RunResult mono = exp::run_scenario(sc);
        const RunResult sharded = exp::run_sharded_scenario(sc);
        expect_identical(mono, sharded, label);
        EXPECT_EQ(sharded.root_comm.total(), 0u)
            << label << ": inert root tier must never speak";
      }
    }
  }
}

TEST(ShardEquivalence, ShardedExactUnderInstantNetwork) {
  // Quota edges on purpose: k = 2 < c = 7 leaves quota-0 shards; k = n
  // fills every shard; n = 53 splits unevenly across 7.
  struct Case {
    std::size_t n, k, shards;
  };
  const std::vector<Case> cases{{53, 2, 7}, {32, 32, 4}, {40, 11, 2},
                                {64, 9, 4}};
  // Random walks drift the boundary slowly; iid uniform re-rolls every
  // value each step, forcing continuous mid-run crossings so the whole
  // probe/quota-transfer/re-anchor renegotiation loop runs hot (hundreds
  // of polls over these 250 steps), not just the bootstrap.
  const std::vector<StreamFamily> families{StreamFamily::kRandomWalk,
                                           StreamFamily::kIidUniform};
  for (const auto& monitor : {"topk_filter", "naive", "naive_chg"}) {
    for (const Case& c : cases) {
      for (const StreamFamily family : families) {
        for (const std::uint64_t seed : {1ull, 9ull}) {
          exp::Scenario sc = base_scenario(monitor, c.n, c.k, seed, 250);
          sc.stream.family = family;
          sc.shards = c.shards;
          sc.validation = RunConfig::Validation::kStrict;
          sc.throw_on_error = true;  // any divergent step throws
          const RunResult r = exp::run_scenario(sc);
          SCOPED_TRACE(std::string(monitor) + " n=" + std::to_string(c.n) +
                       " k=" + std::to_string(c.k) +
                       " c=" + std::to_string(c.shards) + " fam=" +
                       std::string(family_name(family)) +
                       " seed=" + std::to_string(seed));
          EXPECT_TRUE(r.correct);
          EXPECT_EQ(r.error_steps, 0u);
          EXPECT_GT(r.root_comm.total(), 0u);  // the root tier took part
        }
      }
    }
  }
}

// Drives a filter ShardedDeployment over random walks (start values rise
// with node id, so every winner starts in the last shard and the bootstrap
// moves most of the quota there) and checks the answer against the values
// after initialization and after every step.
struct SkewedRun {
  std::uint64_t init_resets = 0;  ///< shard FILTERRESETs by time 0
  std::size_t wrong_steps = 0;    ///< time 0 included
  std::size_t longest_wrong_streak = 0;
};

SkewedRun run_skewed_deployment(const NetworkSpec& network,
                                std::size_t shards, std::size_t steps,
                                std::uint64_t seed = 21) {
  constexpr std::size_t kN = 512;
  constexpr std::size_t kK = 16;
  StreamSpec stream;
  stream.family = StreamFamily::kRandomWalk;
  stream.walk.hi = 100'000'000;
  stream.walk.max_step = 400'000;  // crosses a few neighbours per step
  StreamSet streams = make_stream_set(stream, kN, seed);
  ShardedSpec spec;
  spec.n = kN;
  spec.k = kK;
  spec.shards = shards;
  spec.seed = seed;
  spec.network = network;
  spec.suppress_idle_broadcasts = true;
  ShardedDeployment dep(spec);

  SkewedRun run;
  std::size_t streak = 0;
  std::vector<Value> values(kN);
  std::vector<Value> next(kN);
  std::vector<NodeId> changed;
  const auto check = [&] {
    if (is_valid_topk(values, dep.topk())) {
      streak = 0;
      return;
    }
    ++run.wrong_steps;
    run.longest_wrong_streak = std::max(run.longest_wrong_streak, ++streak);
  };
  streams.advance_all(values);
  for (NodeId id = 0; id < kN; ++id) dep.set_value(id, values[id]);
  dep.initialize();
  run.init_resets = dep.monitor_totals().filter_resets;
  check();
  for (TimeStep t = 1; t <= steps; ++t) {
    streams.advance_all(next);
    changed.clear();
    for (NodeId id = 0; id < kN; ++id) {
      if (next[id] != values[id]) {
        changed.push_back(id);
        dep.set_value(id, next[id]);
      }
    }
    values.swap(next);
    dep.step(t, changed);
    check();
  }
  return run;
}

TEST(ShardQuotaMoves, SkewedStartMovesQuotaInPlaceAndStaysExact) {
  for (const std::size_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const SkewedRun run = run_skewed_deployment(NetworkSpec{}, shards, 150);
    // One FILTERRESET per shard at initialization: every bootstrap quota
    // move ran in place (a swap plus one extremum session).
    EXPECT_EQ(run.init_resets, shards);
    EXPECT_EQ(run.wrong_steps, 0u);  // exact at time 0 and on every step
  }
}

TEST(ShardQuotaMoves, SkewedStartUnderDropFallsBackAndReconverges) {
  // Under loss a refresh session can end unanswered, or a moved node's
  // assignment can be lost; the shard then re-selects at its new quota,
  // which shows as a FILTERRESET beyond the one per shard. Wrong answers
  // stay transient. A shard that rebuilt itself on every quota move was
  // wrong on 26-36 of the 301 checks of each of these runs (and one
  // that kept its answer after an abandoned selection on up to 193).
  bool fell_back = false;
  for (std::uint64_t seed = 21; seed <= 28; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const SkewedRun run =
        run_skewed_deployment(parse_network_spec("drop=0.01"), 4, 300, seed);
    fell_back = fell_back || run.init_resets > 4;
    EXPECT_LE(run.wrong_steps, 20u);
    EXPECT_LE(run.longest_wrong_streak, 10u);
  }
  EXPECT_TRUE(fell_back);
}

TEST(ShardDeterminism, WorkersInvariantAtAnyShardCount) {
  // c = 1: workers shard the single driver's tick scan. c = 4: workers
  // step whole shards concurrently. Both must be byte-identical to the
  // serial run.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    exp::Scenario sc = base_scenario("topk_filter", 96, 8, 5, 150);
    sc.shards = shards;
    if (shards > 1) {
      sc.validation = RunConfig::Validation::kStrict;
    } else {
      sc.record_series = true;  // series supported (and compared) at c = 1
    }
    sc.workers = 1;
    const RunResult serial = exp::run_scenario(sc);
    sc.workers = 8;
    const RunResult wide = exp::run_scenario(sc);
    expect_identical(serial, wide, "shards=" + std::to_string(shards));
    EXPECT_EQ(serial.root_comm.total(), wide.root_comm.total());
  }
}

TEST(ShardScenario, MonitorParamOverridesScenarioField) {
  // `?shards=c` beats Scenario::shards; `?shards=1` forces the monolithic
  // path even if the field says otherwise.
  exp::Scenario sc = base_scenario("topk_filter?shards=4", 40, 5, 3, 100);
  sc.shards = 1;
  const RunResult sharded = exp::run_scenario(sc);
  EXPECT_GT(sharded.root_comm.total(), 0u);

  exp::Scenario mono = base_scenario("topk_filter?shards=1", 40, 5, 3, 100);
  mono.shards = 4;
  const RunResult single = exp::run_scenario(mono);
  EXPECT_EQ(single.root_comm.total(), 0u);
}

TEST(ShardScenario, RejectsUnsupportedConfigurations) {
  // Adapter-backed monitors have no sharded deployment.
  exp::Scenario sc = base_scenario("recompute", 16, 4, 1, 10);
  sc.shards = 2;
  EXPECT_THROW(exp::run_scenario(sc), std::invalid_argument);

  // More shards than nodes.
  exp::Scenario wide = base_scenario("topk_filter", 4, 2, 1, 10);
  wide.shards = 8;
  EXPECT_THROW(exp::run_scenario(wide), std::invalid_argument);
}

TEST(ShardScenario, SeriesMergesAcrossShards) {
  // record_series at c > 1: the per-shard series merge element-wise into
  // one deployment-level per-step series whose sum equals the
  // node<->shard tier total.
  exp::Scenario sc = base_scenario("topk_filter", 64, 6, 2, 80);
  sc.shards = 2;
  sc.record_series = true;
  const RunResult r = exp::run_scenario(sc);
  ASSERT_TRUE(r.comm.series_enabled());
  EXPECT_EQ(r.comm.series().size(), static_cast<std::size_t>(81));
  std::uint64_t sum = 0;
  for (const std::uint64_t v : r.comm.series()) sum += v;
  EXPECT_EQ(sum, r.comm.total());
}

TEST(ShardGrid, ShardsAxisDoesNotEnterTrialSeed) {
  exp::SweepGrid grid;
  grid.ns = {32};
  grid.ks = {4};
  grid.shards = {1, 2, 4};
  grid.trials = 2;
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 6u);
  // Expansion order: shards-major over trials; same trial index at
  // different c must replay the same seed (paired comparisons).
  for (std::size_t t = 0; t < grid.trials; ++t) {
    const auto seed = specs[t].cfg.seed;
    for (std::size_t si = 1; si < grid.shards.size(); ++si) {
      EXPECT_EQ(specs[si * grid.trials + t].cfg.seed, seed);
      EXPECT_EQ(specs[si * grid.trials + t].shards, grid.shards[si]);
    }
  }
}

TEST(ShardGrid, SetAxisParsesAndHintsUnknownNames) {
  exp::SweepGrid grid;
  grid.set_axis("shards", {"1", "8"});
  EXPECT_EQ(grid.shards, (std::vector<std::size_t>{1, 8}));

  try {
    grid.set_axis("shard", {"2"});
    FAIL() << "unknown axis accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("did you mean"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'shards'"), std::string::npos) << msg;
  }
  EXPECT_THROW(grid.set_axis("shards", {"x"}), std::invalid_argument);
  EXPECT_THROW(grid.set_axis("shards", {}), std::invalid_argument);
}

TEST(ShardRegistry, SplitShardsParam) {
  using exp::split_shards_param;
  EXPECT_EQ(split_shards_param("topk_filter"),
            std::make_pair(std::string("topk_filter"), std::size_t{0}));
  EXPECT_EQ(split_shards_param("topk_filter?shards=4"),
            std::make_pair(std::string("topk_filter"), std::size_t{4}));
  // Other params survive, in order, with the shards key stripped.
  EXPECT_EQ(split_shards_param("topk_filter?nobeacon,shards=2"),
            std::make_pair(std::string("topk_filter?nobeacon"),
                           std::size_t{2}));
  EXPECT_EQ(split_shards_param("topk_filter?shards=2,nobeacon"),
            std::make_pair(std::string("topk_filter?nobeacon"),
                           std::size_t{2}));
  EXPECT_THROW(split_shards_param("topk_filter?shards=0"),
               std::invalid_argument);
  EXPECT_THROW(split_shards_param("topk_filter?shards=x"),
               std::invalid_argument);
}

TEST(ShardPartition, WordAlignedBalancedRanges) {
  // Boundaries fall on 64-node words whenever there are enough words to
  // go around; sizes stay balanced and cover [0, n) exactly.
  for (const std::size_t n : {4096u, 1000u, 130u, 53u}) {
    for (const std::size_t c : {1u, 2u, 7u, 16u}) {
      if (c > n) continue;
      const auto ranges = partition_shards(n, c);
      ASSERT_EQ(ranges.size(), c);
      std::size_t covered = 0;
      std::size_t min_size = n, max_size = 0;
      for (std::size_t s = 0; s < c; ++s) {
        EXPECT_EQ(ranges[s].base, covered);
        EXPECT_GT(ranges[s].size, 0u);
        covered += ranges[s].size;
        min_size = std::min(min_size, ranges[s].size);
        max_size = std::max(max_size, ranges[s].size);
        if ((n + 63) / 64 >= c && s + 1 < c) {
          EXPECT_EQ(ranges[s + 1].base % 64, 0u)
              << "n=" << n << " c=" << c << " s=" << s;
        }
      }
      EXPECT_EQ(covered, n);
      // Word-aligned splits differ by at most one 64-node word plus the
      // final word's truncation to n; the tiny-n fallback balances nodes
      // directly (spread <= 1).
      EXPECT_LE(max_size - min_size, (n + 63) / 64 >= c ? 127u : 1u)
          << "n=" << n << " c=" << c;
    }
  }
}

}  // namespace
}  // namespace topkmon
