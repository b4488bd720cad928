// Declarative experiment scenarios: one struct describes *everything* a
// single simulation needs — which monitor (registry spec string), which
// workload (StreamSpec, family settable by name), which network policy
// (NetworkSpec, parseable from a string), the problem size and the
// validation regime. run_scenario() is the single execution entry point:
// it builds the role-separated deployment, drives it with the SimDriver
// event loop, validates every step against the ground truth and returns
// the familiar RunResult. Every registry monitor is a native role pair,
// so every monitor runs under every network policy, worker count and
// fault plan; the run_scenario(Scenario, StreamSet&) overload replays
// caller-built streams (e.g. a hand-made TraceMatrix) through the same
// loop.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "sim/network_model.hpp"
#include "streams/factory.hpp"

namespace topkmon::exp {

struct Scenario {
  /// Monitor registry spec, e.g. "topk_filter" or "slack?alpha=0.1".
  std::string monitor = "topk_filter";

  /// Workload description; set `stream.family` directly or via
  /// with_stream_family().
  StreamSpec stream{};

  /// Delivery policy (see sim/network_model.hpp); default instant.
  NetworkSpec network{};

  std::size_t n = 16;         ///< number of nodes
  std::size_t k = 4;          ///< monitored top-k size
  std::size_t steps = 1'000;  ///< observation steps after initialization
  std::uint64_t seed = 42;    ///< cluster / stream / link randomness seed

  /// Per-step ground-truth check: kStrict (exact canonical set), kWeak
  /// (any valid set under ties), kOff (no checking; perf runs).
  RunConfig::Validation validation = RunConfig::Validation::kStrict;
  /// Additionally require the answer's rank *order* to match (only
  /// meaningful for the ordered monitor).
  bool validate_order = false;
  /// Record the full n × steps value matrix in RunResult::trace.
  bool record_trace = false;
  /// Record per-step message-count series in the CommStats.
  bool record_series = false;

  /// Propagate validation divergence as an exception (else it is recorded
  /// in RunResult::error_steps — the right mode for lossy networks).
  bool throw_on_error = true;

  /// Diagnostic / benchmark escape hatch: run the driver's legacy dense
  /// per-tick scan and dense observe loop instead of the activity-driven
  /// sparse path. Output-identical by contract (the sparse/dense
  /// equivalence tests enforce it); the e16 scale suite uses it as the
  /// before side of its speedup measurements.
  bool dense_loop = false;

  /// Tick-scan parallelism of the SimDriver: 1 (default) runs the serial
  /// loop, W > 1 shards the per-tick node scan across W threads, 0 means
  /// one per hardware thread. Output is byte-identical for every value
  /// (the parallel-tick determinism contract; enforced by tests and the
  /// CI workers-determinism smoke).
  std::size_t workers = 1;

  /// Shard count of the two-tier hierarchical deployment
  /// (core/root_merge.hpp): 1 (default) runs the single-coordinator path,
  /// c > 1 partitions the nodes across c shard coordinators under a root
  /// coordinator and routes the run through run_sharded_scenario —
  /// RunResult::comm then counts the node<->shard tier and
  /// RunResult::root_comm the shard<->root tier. A `?shards=c` monitor
  /// parameter (e.g. "topk_filter?shards=4") overrides this field. Only
  /// the monitors with a sharded deployment ("topk_filter", "naive",
  /// "naive_chg" — a narrower set than the native role ports) support
  /// c > 1.
  /// record_series works at any c: the per-shard series are merged
  /// element-wise into one deployment-level per-step series (every shard
  /// begins the same steps, so the series align by index).
  std::size_t shards = 1;

  /// Fault-injection plan (sim/fault_plan.hpp spec grammar): "none"
  /// (default) runs fault-free and byte-identical to a scenario without
  /// the field; anything else schedules crash / recover / join / leave /
  /// dynamic-k events — plus the adversarial degradations lag / stale /
  /// mute / heal — against the run. Composes with any network policy and with workers > 1 (schedules derive from the run seed like
  /// link randomness, so results stay byte-reproducible). With join
  /// events the cluster/streams/ground truth are provisioned at the
  /// plan's total_nodes(); RunResult::recovery_ticks then reports the
  /// re-convergence window of every event (for a degradation: the error
  /// tail until the monitor quarantines the node or the heal lands).
  /// Sharded deployments (shards > 1) accept churn and dynamic-k plans —
  /// the deployment carves the schedule into per-shard plans and the
  /// root renegotiates quotas across outages — and reject degradations
  /// (lag/stale/mute/heal require shards == 1).
  std::string faults = "none";

  /// Optional per-step observer called after each validated step with the
  /// step index, the true values and the coordinator's current answer
  /// (custom metrics such as regret; not part of the declarative core).
  std::function<void(TimeStep, const std::vector<Value>&,
                     const std::vector<NodeId>&)>
      on_step;

  // -- fluent helpers --------------------------------------------------------
  /// Sets the monitor registry spec (e.g. "topk_filter?nobeacon").
  Scenario& with_monitor(std::string spec) {
    monitor = std::move(spec);
    return *this;
  }
  Scenario& with_stream_family(std::string_view family) {
    // Param-aware: bare names keep their legacy meaning, and wrapper
    // specs such as "sparse?rate=0.01,inner=random_walk" patch the
    // current StreamSpec in place.
    stream = parse_stream_spec(family, stream);
    return *this;
  }
  /// Parses and sets the delivery policy (e.g. "delay=2,jitter=3").
  Scenario& with_network(std::string_view spec) {
    network = parse_network_spec(spec);
    return *this;
  }
  /// Sets the fault plan spec (e.g. "churn?every=200,down=3,count=5,
  /// outage=80"); validated at run time against n / k / seed.
  Scenario& with_faults(std::string spec) {
    faults = std::move(spec);
    return *this;
  }

  /// The equivalent RunConfig (used to key RunResult rows).
  RunConfig run_config() const {
    RunConfig cfg;
    cfg.n = n;
    cfg.k = k;
    cfg.steps = steps;
    cfg.seed = seed;
    cfg.validation = validation;
    cfg.validate_order = validate_order;
    cfg.record_trace = record_trace;
    cfg.record_series = record_series;
    return cfg;
  }
};

/// Runs the scenario end to end and returns its result. Throws
/// std::invalid_argument for malformed scenarios (unknown monitor/family,
/// k out of range) and std::logic_error on validation divergence when
/// throw_on_error is set. Thread-safe: concurrent calls share no state
/// (each scenario builds its own cluster/driver), which is how the
/// SweepRunner's trial parallelism composes with per-scenario workers.
RunResult run_scenario(const Scenario& scenario);

/// Runs the scenario over caller-supplied streams instead of
/// `scenario.stream` (hand-built traces: TraceMatrix::to_stream_set()).
/// `streams` must hold one stream per provisioned node (scenario.n, plus
/// the fault plan's joining nodes) and is advanced by the run. Monolithic
/// deployments only: throws std::invalid_argument for shards > 1 or a
/// stream-count mismatch, otherwise behaves exactly like run_scenario.
RunResult run_scenario(const Scenario& scenario, StreamSet& streams);

/// Runs the scenario on a two-tier sharded deployment (core/root_merge.hpp)
/// with `scenario.shards` shard coordinators (a `?shards=c` monitor
/// parameter wins over the field; run_scenario dispatches here whenever
/// the effective count is > 1). Callable directly with shards == 1 too —
/// the root tier is then inert and the output is message-for-message and
/// answer-for-answer identical to run_scenario's monolithic path (pinned
/// by tests/core/test_shard_equivalence.cpp). Exactness at c > 1 is
/// guaranteed under instant delivery with pairwise-distinct values;
/// non-instant networks run supported-but-degraded, like the monolithic
/// native monitors (error steps are recorded, use kWeak +
/// throw_on_error=false). Membership churn and dynamic-k fault plans are
/// supported at any c (whole-shard outages drain the dead shard's quota
/// at the root and regrant it on recovery); adversarial degradations are
/// not. Throws std::invalid_argument for monitors without a sharded
/// deployment, plans with degradations, or shards > n.
RunResult run_sharded_scenario(const Scenario& scenario);

}  // namespace topkmon::exp
