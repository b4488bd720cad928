#include "exp/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/deployment.hpp"
#include "core/driver.hpp"
#include "core/ground_truth_tracker.hpp"
#include "core/ordered_roles.hpp"
#include "core/root_merge.hpp"
#include "exp/monitor_registry.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plan.hpp"

namespace topkmon::exp {

namespace {

/// The single-coordinator deployment: one cluster of `nodes` (the
/// plan's total_nodes() with joins), the registry's role pair and a
/// SimDriver. Ids provisioned for a later join start down.
class MonolithicDeployment final : public Deployment {
 public:
  MonolithicDeployment(const Scenario& sc, std::string_view monitor,
                       const FaultPlan& plan, std::size_t nodes,
                       std::size_t workers)
      : cluster_(nodes, sc.seed, sc.network),
        pair_(make_role_pair(cluster_, monitor, sc.k)),
        driver_(cluster_, *pair_.coordinator, pair_.nodes, pair_.native,
                workers) {
    if (sc.record_series) cluster_.stats().enable_series();
    driver_.set_dense_loop(sc.dense_loop);
    if (!plan.empty()) {
      driver_.set_fault_plan(&plan);
      for (NodeId id = sc.n; id < nodes; ++id) cluster_.net().set_node_down(id);
    }
  }

  void set_value(NodeId id, Value v) override { cluster_.set_value(id, v); }
  void begin_step(TimeStep t) override { cluster_.stats().begin_step(t); }
  void initialize() override { driver_.initialize(); }
  void step(TimeStep t, std::span<const NodeId> changed) override {
    driver_.step(t, changed);
  }
  const std::vector<NodeId>& topk() const override {
    return pair_.coordinator->topk();
  }
  std::string_view name() const override { return pair_.coordinator->name(); }
  SimTime ticks() const override { return driver_.now(); }
  void read_result(RunResult& out) override {
    out.monitor_name = std::string(name());
    out.comm = cluster_.stats();
    out.monitor = pair_.coordinator->monitor_stats();
  }

  /// The ordered monitor's ranked answer, else nullptr.
  const std::vector<NodeId>* ordered_topk() const {
    const auto* ordered =
        dynamic_cast<const OrderedCoordinator*>(pair_.coordinator.get());
    return ordered != nullptr ? &ordered->ordered_topk() : nullptr;
  }

 private:
  Cluster cluster_;
  RolePair pair_;
  SimDriver driver_;
};

/// The run loop behind every entry point. `given` holds caller-supplied
/// streams (else the scenario's are generated); `force_sharded` builds a
/// ShardedDeployment even at c == 1.
RunResult run(const Scenario& sc, StreamSet* given, bool force_sharded) {
  const auto [monitor, shards_param] = split_shards_param(sc.monitor);
  // An explicit `?shards=c` wins over Scenario::shards.
  const std::size_t shards = shards_param != 0 ? shards_param : sc.shards;
  const bool sharded = force_sharded || shards > 1;
  const std::string_view who =
      sharded ? "run_sharded_scenario" : "run_scenario";
  if (sc.k == 0 || sc.k > sc.n) {
    throw std::invalid_argument(std::string(who) + ": k out of range");
  }
  if (shards == 0 || shards > sc.n) {
    throw std::invalid_argument(std::string(who) + ": need 1 <= shards <= n");
  }

  // Fault plan: validated up front so provisioning (cluster, streams,
  // ground truth) accounts for joining nodes. An empty plan ("none")
  // leaves every allocation and every RNG stream exactly as before —
  // fault-free runs stay byte-identical.
  const FaultPlan plan(sc.faults, sc.n, sc.k, sc.seed);
  const bool faulty = !plan.empty();
  const std::size_t N = faulty ? plan.total_nodes() : sc.n;
  if (given != nullptr && given->size() != N) {
    throw std::invalid_argument("run_scenario: stream count != n");
  }
  const auto wall_start = std::chrono::steady_clock::now();
  std::optional<StreamSet> generated;
  if (given == nullptr) {
    generated.emplace(make_stream_set(sc.stream, N, sc.seed));
  }
  StreamSet& streams = given != nullptr ? *given : *generated;

  const std::size_t workers =
      sc.workers != 0
          ? sc.workers
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // Both live on the stack: a run allocates no more than the deployment
  // itself does.
  std::optional<ShardedDeployment> sharded_dep;
  std::optional<MonolithicDeployment> mono_dep;
  Deployment* dep = nullptr;
  const std::vector<NodeId>* ordered = nullptr;
  std::string detail;  // appended to validation error messages
  if (sharded) {
    ShardedSpec dspec = sharded_monitor_spec(monitor);
    dspec.n = N;
    dspec.k = sc.k;
    dspec.shards = shards;
    dspec.seed = sc.seed;
    dspec.network = sc.network;
    dspec.workers = workers;
    dspec.dense_loop = sc.dense_loop;
    if (faulty) dspec.faults = &plan;
    dep = &sharded_dep.emplace(dspec, sc.record_series);
    detail = " (network " + sc.network.name() + ", shards " +
             std::to_string(shards) + ")";
  } else {
    dep = &mono_dep.emplace(sc, monitor, plan, N, workers);
    if (sc.validate_order) ordered = mono_dep->ordered_topk();
    detail = " (network " + sc.network.name() + ")";
  }

  const RunConfig cfg = sc.run_config();
  RunResult result;
  result.config = cfg;
  result.network = sc.network.name();
  if (sc.record_trace) result.trace.emplace(N, sc.steps + 1);

  // Validation against the incremental ground truth; the rank-order check
  // applies to the ordered monitor. The tracker's k is fixed at
  // construction, so a dynamic-k event re-emplaces it (and re-feeds the
  // value mirror).
  std::optional<GroundTruthTracker> truth(std::in_place, N, sc.k);
  const bool track = cfg.validation != RunConfig::Validation::kOff;
  const auto check = [&](TimeStep t) {
    check_answer_step(*truth, dep->topk(), ordered, cfg, dep->name(), detail,
                      t, &result, sc.throw_on_error);
  };

  // Down-node bookkeeping mirroring the drivers' alive bits at step
  // granularity: ids provisioned for a later join start down (the
  // deployment marks their transports down; the ground truth excludes
  // them until their join event fires).
  std::vector<char> down(N, 0);
  for (NodeId id = sc.n; id < N; ++id) {
    down[id] = 1;
    if (track) truth->set_value(id, kMinusInf);
  }

  // Two observation paths producing identical values and an identical
  // changed-id list:
  //  * quiet-capable stream sets (the sparse wrapper family) advance
  //    through the activity interface — untouched nodes cost one counter
  //    decrement, nothing is materialized;
  //  * everything else uses the batched lookahead plus a flat
  //    previous-value compare (contiguous, so the scan streams through
  //    two arrays instead of striding the NodeRuntime structs).
  // Either way, per-node work beyond the change test happens only for
  // nodes whose value moved — identical values land in identical
  // cluster/tracker/trace state, byte-equivalent to a dense write loop.
  const bool quiet_streams = streams.quiet_capable();
  if (!quiet_streams) streams.plan_steps(sc.steps + 1);
  std::vector<Value> values(N, 0);  // mirrors the (all-zero) clusters
  std::vector<Value> incoming(N);
  std::vector<NodeId> changed;
  changed.reserve(N);

  // Down nodes keep streaming into the values[] mirror (their stream RNG
  // must stay in lock-step with a fault-free run) but write neither the
  // deployment nor the ground truth — a dark node's moves are invisible
  // until recovery syncs its latest value back in.
  const auto observe = [&](TimeStep t) {
    if (quiet_streams) {
      streams.advance_all_active(values, changed);
      for (const NodeId id : changed) {
        if (down[id]) continue;
        dep->set_value(id, values[id]);
        if (track) truth->set_value(id, values[id]);
      }
    } else {
      streams.advance_all(incoming);
      changed.clear();
      for (NodeId id = 0; id < N; ++id) {
        const Value v = incoming[id];
        if (v != values[id] && !down[id]) {
          changed.push_back(id);
          dep->set_value(id, v);
          if (track) truth->set_value(id, v);
        }
      }
      values.swap(incoming);
    }
    if (result.trace.has_value()) {
      for (NodeId id = 0; id < N; ++id) result.trace->at(t, id) = values[id];
    }
  };

  // Scenario-side mirror of the fault schedule: the deployment's drivers
  // fire the events inside step(t); this cursor applies their
  // ground-truth and value-sync effects at the same step, and opens a
  // recovery window per burst — each erroring step extends the window's
  // entries in result.recovery_ticks until the answer stops diverging
  // (or the next burst takes over).
  std::size_t next_event = 0;
  std::size_t win_begin = 0;
  std::size_t win_end = 0;
  std::uint64_t win_tick = 0;
  bool win_open = false;
  if (faulty) result.recovery_ticks.assign(plan.events().size(), 0);

  const auto apply_events = [&](TimeStep t) {
    const std::size_t first = next_event;
    const auto& events = plan.events();
    while (next_event < events.size() && events[next_event].step == t) {
      const FaultEvent& ev = events[next_event];
      switch (ev.kind) {
        case FaultEvent::Kind::kCrash:
        case FaultEvent::Kind::kLeave:
          down[ev.node] = 1;
          if (track) truth->set_value(ev.node, kMinusInf);
          break;
        case FaultEvent::Kind::kRecover:
          down[ev.node] = 0;
          dep->set_value(ev.node, values[ev.node]);
          if (track) truth->set_value(ev.node, values[ev.node]);
          break;
        case FaultEvent::Kind::kJoin:
          for (std::size_t i = 0; i < ev.count; ++i) {
            const NodeId id = ev.node + static_cast<NodeId>(i);
            down[id] = 0;
            dep->set_value(id, values[id]);
            if (track) truth->set_value(id, values[id]);
          }
          break;
        case FaultEvent::Kind::kSetK:
          if (track) {
            truth.emplace(N, ev.count);
            for (NodeId id = 0; id < N; ++id) {
              truth->set_value(id, down[id] ? kMinusInf : values[id]);
            }
          }
          break;
        case FaultEvent::Kind::kLag:
        case FaultEvent::Kind::kStale:
        case FaultEvent::Kind::kMute:
        case FaultEvent::Kind::kHeal:
          // Degradations touch neither the truth nor the value mirror (the
          // node is up and observing; only its wire behaviour changes) —
          // but they do open a recovery window below, so the error tail
          // the monitor accrues until it quarantines / heals is charged to
          // the event in result.recovery_ticks.
          break;
      }
      ++next_event;
    }
    if (next_event != first) {
      win_begin = first;
      win_end = next_event;
      win_tick = dep->ticks();
      win_open = true;
    }
  };

  // Time 0: first observations + initialization (at c > 1 the bootstrap
  // renegotiation establishes the root boundary before step 1).
  dep->begin_step(0);
  observe(0);
  dep->initialize();
  check(0);
  ++result.steps_executed;
  if (sc.on_step) sc.on_step(0, values, dep->topk());
  result.init_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Steps 1..steps.
  for (TimeStep t = 1; t <= sc.steps; ++t) {
    dep->begin_step(t);
    observe(t);
    if (faulty) apply_events(t);
    const std::uint64_t errors_before = result.error_steps;
    dep->step(t, changed);
    check(t);
    if (win_open && result.error_steps != errors_before) {
      const std::uint64_t w = dep->ticks() - win_tick;
      for (std::size_t i = win_begin; i < win_end; ++i) {
        result.recovery_ticks[i] = w;
      }
    }
    ++result.steps_executed;
    if (sc.on_step) sc.on_step(t, values, dep->topk());
  }

  dep->read_result(result);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace

RunResult run_scenario(const Scenario& sc) { return run(sc, nullptr, false); }

RunResult run_scenario(const Scenario& sc, StreamSet& streams) {
  return run(sc, &streams, false);
}

RunResult run_sharded_scenario(const Scenario& sc) {
  return run(sc, nullptr, true);
}

}  // namespace topkmon::exp
