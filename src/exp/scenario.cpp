#include "exp/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/driver.hpp"
#include "core/ground_truth_tracker.hpp"
#include "core/ordered_roles.hpp"
#include "core/root_merge.hpp"
#include "exp/monitor_registry.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "util/strings.hpp"

namespace topkmon::exp {

namespace {

/// The monolithic run loop shared by both run_scenario overloads:
/// `streams` holds one stream per provisioned node (plan.total_nodes()
/// with joins, else sc.n); `wall_start` is when the caller began.
RunResult run_monolithic(const Scenario& sc, const FaultPlan& plan,
                         StreamSet& streams,
                         std::chrono::steady_clock::time_point wall_start) {
  const bool faulty = !plan.empty();
  const std::size_t N = faulty ? plan.total_nodes() : sc.n;
  Cluster cluster(N, sc.seed, sc.network);
  RolePair pair = make_role_pair(cluster, sc.monitor, sc.k);
  const std::size_t workers =
      sc.workers != 0
          ? sc.workers
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (sc.record_series) cluster.stats().enable_series();

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
  const auto* ordered =
      sc.validate_order
          ? dynamic_cast<const OrderedCoordinator*>(pair.coordinator.get())
          : nullptr;
  const std::string detail = " (network " + sc.network.name() + ")";
  const auto check = [&](TimeStep t) {
    check_answer_step(*truth, pair.coordinator->topk(),
                      ordered != nullptr ? &ordered->ordered_topk() : nullptr,
                      cfg, pair.coordinator->name(), detail, t, &result,
                      sc.throw_on_error);
  };

  SimDriver driver(cluster, *pair.coordinator, pair.nodes, pair.native,
                   workers);
  driver.set_dense_loop(sc.dense_loop);

  // Down-node bookkeeping mirroring the driver's alive bits at step
  // granularity: ids provisioned for a later join start down (transport
  // and ground truth both exclude them until their join event fires).
  std::vector<char> down(N, 0);
  if (faulty) {
    driver.set_fault_plan(&plan);
    for (NodeId id = sc.n; id < N; ++id) {
      down[id] = 1;
      cluster.net().set_node_down(id);
      if (track) truth->set_value(id, kMinusInf);
    }
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
  std::vector<Value> values(N, 0);  // mirrors the (all-zero) cluster
  std::vector<Value> incoming(N);
  std::vector<NodeId> changed;
  changed.reserve(N);

  // Down nodes keep streaming into the values[] mirror (their stream RNG
  // must stay in lock-step with a fault-free run) but write neither the
  // cluster nor the ground truth — a dark node's moves are invisible
  // until recovery syncs its latest value back in.
  const auto observe = [&](TimeStep t) {
    if (quiet_streams) {
      streams.advance_all_active(values, changed);
      for (const NodeId id : changed) {
        if (down[id]) continue;
        cluster.set_value(id, values[id]);
        if (track) truth->set_value(id, values[id]);
      }
    } else {
      streams.advance_all(incoming);
      changed.clear();
      for (NodeId id = 0; id < N; ++id) {
        const Value v = incoming[id];
        if (v != values[id] && !down[id]) {
          changed.push_back(id);
          cluster.set_value(id, v);
          if (track) truth->set_value(id, v);
        }
      }
      values.swap(incoming);
    }
    if (result.trace.has_value()) {
      for (NodeId id = 0; id < N; ++id) result.trace->at(t, id) = values[id];
    }
  };

  // Scenario-side mirror of the fault schedule: the driver fires the
  // events inside step(t)'s settle; this cursor applies their ground-truth
  // and value-sync effects at the same step, and opens a recovery window
  // per burst — each erroring step extends the window's entries in
  // result.recovery_ticks until the answer stops diverging (or the next
  // burst takes over).
  std::size_t next_event = 0;
  std::size_t win_begin = 0;
  std::size_t win_end = 0;
  std::uint64_t win_tick = 0;
  bool win_open = false;
  std::size_t cur_k = sc.k;
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
          cluster.set_value(ev.node, values[ev.node]);
          if (track) truth->set_value(ev.node, values[ev.node]);
          break;
        case FaultEvent::Kind::kJoin:
          for (std::size_t i = 0; i < ev.count; ++i) {
            const NodeId id = ev.node + static_cast<NodeId>(i);
            down[id] = 0;
            cluster.set_value(id, values[id]);
            if (track) truth->set_value(id, values[id]);
          }
          break;
        case FaultEvent::Kind::kSetK:
          cur_k = ev.count;
          if (track) {
            truth.emplace(N, cur_k);
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
      win_tick = driver.now();
      win_open = true;
    }
  };

  // Time 0: first observations + initialization.
  cluster.stats().begin_step(0);
  observe(0);
  driver.initialize();
  check(0);
  ++result.steps_executed;
  if (sc.on_step) sc.on_step(0, values, pair.coordinator->topk());
  result.init_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Steps 1..steps.
  for (TimeStep t = 1; t <= sc.steps; ++t) {
    cluster.stats().begin_step(t);
    observe(t);
    if (faulty) apply_events(t);
    const std::uint64_t errors_before = result.error_steps;
    driver.step(t, changed);
    check(t);
    if (win_open && result.error_steps != errors_before) {
      const std::uint64_t w = driver.now() - win_tick;
      for (std::size_t i = win_begin; i < win_end; ++i) {
        result.recovery_ticks[i] = w;
      }
    }
    ++result.steps_executed;
    if (sc.on_step) sc.on_step(t, values, pair.coordinator->topk());
  }

  result.monitor_name = std::string(pair.coordinator->name());
  result.comm = cluster.stats();
  result.monitor = pair.coordinator->monitor_stats();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace

RunResult run_scenario(const Scenario& sc) {
  // Deployment-level dispatch: an explicit `?shards=c` monitor parameter
  // wins over Scenario::shards; an effective count > 1 routes through the
  // two-tier sharded runner. `?shards=1` is stripped and runs the
  // monolithic path (identical output either way; the monolithic path
  // additionally supports record_series).
  const auto [stripped_monitor, shards_param] = split_shards_param(sc.monitor);
  const std::size_t shard_count = shards_param != 0 ? shards_param : sc.shards;
  if (shard_count > 1) {
    Scenario sharded = sc;
    sharded.monitor = stripped_monitor;
    sharded.shards = shard_count;
    return run_sharded_scenario(sharded);
  }
  if (shards_param != 0) {
    Scenario mono = sc;
    mono.monitor = stripped_monitor;
    mono.shards = 1;
    return run_scenario(mono);
  }
  if (sc.k == 0 || sc.k > sc.n) {
    throw std::invalid_argument("run_scenario: k out of range");
  }

  // Fault plan: validated up front so provisioning (cluster, streams,
  // ground truth) accounts for joining nodes. An empty plan ("none")
  // leaves every allocation and every RNG stream exactly as before —
  // fault-free runs stay byte-identical.
  const FaultPlan plan(sc.faults, sc.n, sc.k, sc.seed);
  const std::size_t N = plan.empty() ? sc.n : plan.total_nodes();
  const auto wall_start = std::chrono::steady_clock::now();
  auto streams = make_stream_set(sc.stream, N, sc.seed);
  return run_monolithic(sc, plan, streams, wall_start);
}

RunResult run_scenario(const Scenario& sc, StreamSet& streams) {
  const auto [monitor, shards_param] = split_shards_param(sc.monitor);
  if ((shards_param != 0 ? shards_param : sc.shards) > 1) {
    throw std::invalid_argument(
        "run_scenario: caller-supplied streams need a monolithic deployment");
  }
  if (sc.k == 0 || sc.k > sc.n) {
    throw std::invalid_argument("run_scenario: k out of range");
  }
  const FaultPlan plan(sc.faults, sc.n, sc.k, sc.seed);
  const std::size_t N = plan.empty() ? sc.n : plan.total_nodes();
  if (streams.size() != N) {
    throw std::invalid_argument("run_scenario: stream count != n");
  }
  Scenario mono = sc;
  mono.monitor = monitor;
  return run_monolithic(mono, plan, streams, std::chrono::steady_clock::now());
}

RunResult run_sharded_scenario(const Scenario& sc) {
  if (sc.k == 0 || sc.k > sc.n) {
    throw std::invalid_argument("run_sharded_scenario: k out of range");
  }
  // Sharded deployments accept membership churn and dynamic-k plans (the
  // deployment carves the schedule into per-shard plans; a whole-shard
  // outage drains its quota at the root via the under-fill fixpoint) and
  // reject adversarial degradations: the suspicion machinery that answers
  // them has no root-tier protocol.
  const FaultPlan plan(sc.faults, sc.n, sc.k, sc.seed);
  const bool faulty = !plan.empty();
  if (plan.has_degradation()) {
    throw std::invalid_argument(
        "run_sharded_scenario: fault plan '" + sc.faults +
        "' contains adversarial degradations; sharded deployments support "
        "churn and k plans (lag/stale/mute/heal require shards == 1)");
  }
  // Provision for joining blocks exactly like the monolithic runner: ids
  // [sc.n, N) exist from the start (streams, trace, truth, shard
  // clusters) but start down.
  const std::size_t N = faulty ? plan.total_nodes() : sc.n;
  const auto [spec, shards_param] = split_shards_param(sc.monitor);
  const std::size_t shards = shards_param != 0 ? shards_param : sc.shards;
  if (shards == 0 || shards > sc.n) {
    throw std::invalid_argument(
        "run_sharded_scenario: need 1 <= shards <= n");
  }

  // Sharded deployments exist for the three native monitors only; parse
  // the (shards-stripped) spec with the same grammar the registry uses.
  ShardedSpec dspec;
  {
    const std::size_t q = spec.find('?');
    const std::string name = spec.substr(0, q);
    const std::string_view params =
        q == std::string::npos ? std::string_view{}
                               : std::string_view(spec).substr(q + 1);
    if (name == "topk_filter") {
      dspec.monitor = ShardedSpec::Monitor::kFilter;
      for (const std::string_view item : split(params, ',')) {
        if (item == "nobeacon" || item == "nobeacon=1" ||
            item == "nobeacon=true") {
          dspec.suppress_idle_broadcasts = true;
        } else if (item == "nobeacon=0" || item == "nobeacon=false") {
          dspec.suppress_idle_broadcasts = false;
        } else {
          throw std::invalid_argument("monitor 'topk_filter': unknown or "
                                      "malformed parameter '" +
                                      std::string(item) + "'");
        }
      }
    } else if (name == "naive" && params.empty()) {
      dspec.monitor = ShardedSpec::Monitor::kNaive;
    } else if (name == "naive_chg" && params.empty()) {
      dspec.monitor = ShardedSpec::Monitor::kNaiveChg;
    } else {
      throw std::invalid_argument(
          "run_sharded_scenario: monitor '" + spec +
          "' has no sharded deployment (native: topk_filter, naive, "
          "naive_chg)");
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();

  auto streams = make_stream_set(sc.stream, N, sc.seed);

  dspec.n = N;
  dspec.k = sc.k;
  dspec.shards = shards;
  dspec.seed = sc.seed;
  dspec.network = sc.network;
  dspec.workers =
      sc.workers != 0
          ? sc.workers
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  dspec.dense_loop = sc.dense_loop;
  if (faulty) dspec.faults = &plan;
  ShardedDeployment dep(dspec);
  if (sc.record_series) {
    // Every shard cluster begins the same observation steps, so the
    // per-shard series align by index and node_shard_comm's accumulate
    // merges them into one deployment-level per-step series.
    for (std::size_t s = 0; s < dep.shards(); ++s) {
      dep.shard_cluster(s).stats().enable_series();
    }
  }

  const RunConfig cfg = sc.run_config();
  RunResult result;
  result.config = cfg;
  result.network = sc.network.name();
  if (sc.record_trace) result.trace.emplace(N, sc.steps + 1);

  std::optional<GroundTruthTracker> truth(std::in_place, N, sc.k);
  const bool track = cfg.validation != RunConfig::Validation::kOff;
  const std::string detail = " (network " + sc.network.name() + ", shards " +
                             std::to_string(shards) + ")";
  const auto check = [&](TimeStep t) {
    check_answer_step(*truth, dep.topk(), /*ordered=*/nullptr, cfg, dep.name(),
                      detail, t, &result, sc.throw_on_error);
  };
  const auto begin_step = [&](TimeStep t) {
    for (std::size_t s = 0; s < dep.shards(); ++s) {
      dep.shard_cluster(s).stats().begin_step(t);
    }
  };

  // Down-node bookkeeping mirroring the shard drivers' alive bits at step
  // granularity: ids provisioned for a later join start down (the
  // deployment marks their transports down; the ground truth excludes
  // them until their join event fires).
  std::vector<char> down(N, 0);
  if (faulty) {
    for (NodeId id = sc.n; id < N; ++id) {
      down[id] = 1;
      if (track) truth->set_value(id, kMinusInf);
    }
  }

  // Same two observation paths as run_scenario, with the value writes
  // routed through the deployment (global id -> owning shard cluster).
  // Down nodes keep streaming into the values[] mirror but write neither
  // the shard clusters nor the ground truth — a dark node's moves are
  // invisible until recovery syncs its latest value back in.
  const bool quiet_streams = streams.quiet_capable();
  if (!quiet_streams) streams.plan_steps(sc.steps + 1);
  std::vector<Value> values(N, 0);
  std::vector<Value> incoming(N);
  std::vector<NodeId> changed;
  changed.reserve(N);

  const auto observe = [&](TimeStep t) {
    if (quiet_streams) {
      streams.advance_all_active(values, changed);
      for (const NodeId id : changed) {
        if (down[id]) continue;
        dep.set_value(id, values[id]);
        if (track) truth->set_value(id, values[id]);
      }
    } else {
      streams.advance_all(incoming);
      changed.clear();
      for (NodeId id = 0; id < N; ++id) {
        const Value v = incoming[id];
        if (v != values[id] && !down[id]) {
          changed.push_back(id);
          dep.set_value(id, v);
          if (track) truth->set_value(id, v);
        }
      }
      values.swap(incoming);
    }
    if (result.trace.has_value()) {
      for (NodeId id = 0; id < N; ++id) result.trace->at(t, id) = values[id];
    }
  };

  // Time 0: first observations + two-tier initialization (the bootstrap
  // renegotiation establishes the root boundary before step 1).
  begin_step(0);
  observe(0);
  dep.initialize();
  check(0);
  ++result.steps_executed;
  if (sc.on_step) sc.on_step(0, values, dep.topk());
  result.init_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Scenario-side mirror of the fault schedule (the shard drivers fire
  // the carved membership events inside dep.step(t); dynamic k routes
  // through the root renegotiation here). Recovery windows key on the
  // deployment's max shard tick clock exactly like the monolithic runner
  // keys on SimDriver::now.
  std::size_t next_event = 0;
  std::size_t win_begin = 0;
  std::size_t win_end = 0;
  std::uint64_t win_tick = 0;
  bool win_open = false;
  std::size_t cur_k = sc.k;
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
          dep.set_value(ev.node, values[ev.node]);
          if (track) truth->set_value(ev.node, values[ev.node]);
          break;
        case FaultEvent::Kind::kJoin:
          for (std::size_t i = 0; i < ev.count; ++i) {
            const NodeId id = ev.node + static_cast<NodeId>(i);
            down[id] = 0;
            dep.set_value(id, values[id]);
            if (track) truth->set_value(id, values[id]);
          }
          break;
        case FaultEvent::Kind::kSetK:
          cur_k = ev.count;
          // At c == 1 the shard driver fires the event itself.
          if (dep.shards() > 1) dep.set_k(cur_k);
          if (track) {
            truth.emplace(N, cur_k);
            for (NodeId id = 0; id < N; ++id) {
              truth->set_value(id, down[id] ? kMinusInf : values[id]);
            }
          }
          break;
        case FaultEvent::Kind::kLag:
        case FaultEvent::Kind::kStale:
        case FaultEvent::Kind::kMute:
        case FaultEvent::Kind::kHeal:
          break;  // rejected above; unreachable
      }
      ++next_event;
    }
    if (next_event != first) {
      win_begin = first;
      win_end = next_event;
      win_tick = dep.ticks();
      win_open = true;
    }
  };

  for (TimeStep t = 1; t <= sc.steps; ++t) {
    begin_step(t);
    observe(t);
    if (faulty) apply_events(t);
    const std::uint64_t errors_before = result.error_steps;
    dep.step(t, changed);
    check(t);
    if (win_open && result.error_steps != errors_before) {
      const std::uint64_t w = dep.ticks() - win_tick;
      for (std::size_t i = win_begin; i < win_end; ++i) {
        result.recovery_ticks[i] = w;
      }
    }
    ++result.steps_executed;
    if (sc.on_step) sc.on_step(t, values, dep.topk());
  }

  result.monitor_name = std::string(dep.name());
  result.comm = dep.node_shard_comm();
  result.root_comm = dep.shard_root_comm();
  result.monitor = dep.monitor_totals();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return result;
}

}  // namespace topkmon::exp
