#include "traced.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "alloc_hook.hpp"
#include "core/driver.hpp"
#include "core/ground_truth_tracker.hpp"
#include "core/root_merge.hpp"
#include "exp/monitor_registry.hpp"
#include "exp/scenario.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "streams/factory.hpp"

namespace perfbench {

using namespace topkmon;
using topkmon::bench::thread_alloc_count;

std::uint64_t Ledger::timed_callbacks() const {
  std::uint64_t n = 0;
  for (const auto& k : node) n += k.timed;
  for (const auto& k : coord) n += k.timed;
  return n;
}

std::uint64_t Ledger::untimed_callbacks() const {
  std::uint64_t n = 0;
  for (const auto& k : node) n += k.calls - k.timed;
  return n;
}

std::vector<std::uint64_t> Ledger::counts() const {
  std::vector<std::uint64_t> out = {
      setup_msgs, setup_filter_resets, changed, truth_full_rebuilds,
      truth_boundary_rescans, ticks, driver_allocs, upstream, unicast,
      broadcast, dropped, root_msgs, protocol_runs, violations, resyncs,
      resync_retries, max_recovery_ticks};
  for (const auto& k : node) {
    out.push_back(k.calls);
    out.push_back(k.timed);
    out.push_back(k.useful);
  }
  for (const auto& k : coord) out.push_back(k.calls);
  return out;
}

namespace {

/// Counts callbacks into per-kind totals and times a sample of them.
/// Node callbacks also record whether they were useful: the node sent a
/// charged message (the node tier's upstream counter moved) or armed its
/// timer. The sample is drawn from a fixed LCG, so the same callbacks are
/// timed on every repeat and the counts stay repeatable.
class CallbackClock {
 public:
  explicit CallbackClock(Cluster& cluster) : cluster_(cluster) {}

  template <typename F>
  void node(NodeKind kind, NodeId id, F&& body) {
    const std::uint64_t up0 = cluster_.stats().upstream();
    const bool armed0 = cluster_.runtime().armed.test(id);
    CallbackTotals& k = node_[kind];
    ++k.calls;
    lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
    if (((lcg_ >> 40) & mask_) == 0 && !never_time_) {
      const std::int64_t t0 = now_ns();
      body();
      const std::int64_t t1 = now_ns();
      ++k.timed;
      k.ns += static_cast<double>(t1 - t0);
    } else {
      body();
    }
    if (cluster_.stats().upstream() != up0 ||
        (!armed0 && cluster_.runtime().armed.test(id))) {
      ++k.useful;
    }
  }

  template <typename F>
  void coord(CoordKind kind, F&& body) {
    const std::int64_t t0 = now_ns();
    body();
    const std::int64_t t1 = now_ns();
    ++coord_[kind].calls;
    ++coord_[kind].timed;
    coord_[kind].ns += static_cast<double>(t1 - t0);
  }

  /// Calibration only: time every node callback, or none.
  void time_all() { mask_ = 0; never_time_ = false; }
  void time_none() { never_time_ = true; }

  std::array<CallbackTotals, kNodeKinds> node_{};
  std::array<CallbackTotals, kCoordKinds> coord_{};

 private:
  Cluster& cluster_;
  std::uint64_t lcg_ = 0x9e3779b97f4a7c15ull;
  std::uint64_t mask_ = kNodeSampleMask;
  bool never_time_ = false;
};

/// Forwards every NodeAlgo callback to the real node role, timed.
class TimedNode final : public NodeAlgo {
 public:
  TimedNode(std::unique_ptr<NodeAlgo> inner, CallbackClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  void on_init(NodeCtx& ctx, Value v0) override {
    clock_.node(kNodeOther, ctx.id(), [&] { inner_->on_init(ctx, v0); });
  }
  void on_observe(NodeCtx& ctx, Value v, TimeStep t) override {
    clock_.node(kNodeObserve, ctx.id(), [&] { inner_->on_observe(ctx, v, t); });
  }
  void on_message(NodeCtx& ctx, const Message& m) override {
    clock_.node(kNodeMessage, ctx.id(), [&] { inner_->on_message(ctx, m); });
  }
  void on_control(NodeCtx& ctx, const Control& c) override {
    clock_.node(kNodeControl, ctx.id(), [&] { inner_->on_control(ctx, c); });
  }
  void on_timer(NodeCtx& ctx) override {
    clock_.node(kNodeTimer, ctx.id(), [&] { inner_->on_timer(ctx); });
  }
  void on_recover(NodeCtx& ctx) override {
    clock_.node(kNodeOther, ctx.id(), [&] { inner_->on_recover(ctx); });
  }

 private:
  std::unique_ptr<NodeAlgo> inner_;
  CallbackClock& clock_;
};

/// Forwards every CoordinatorAlgo callback to the real coordinator, timed.
class TimedCoordinator final : public CoordinatorAlgo {
 public:
  TimedCoordinator(CoordinatorAlgo& inner, CallbackClock& clock)
      : inner_(inner), clock_(clock) {}

  std::string_view name() const override { return inner_.name(); }
  void on_init(CoordCtx& ctx) override {
    clock_.coord(kCoordOther, [&] { inner_.on_init(ctx); });
  }
  void on_step_begin(CoordCtx& ctx, TimeStep t) override {
    clock_.coord(kCoordStepHooks, [&] { inner_.on_step_begin(ctx, t); });
  }
  void on_message(CoordCtx& ctx, const Message& m) override {
    clock_.coord(kCoordMessage, [&] { inner_.on_message(ctx, m); });
  }
  void on_timer(CoordCtx& ctx) override {
    clock_.coord(kCoordTimer, [&] { inner_.on_timer(ctx); });
  }
  void on_step_end(CoordCtx& ctx, TimeStep t) override {
    clock_.coord(kCoordStepHooks, [&] { inner_.on_step_end(ctx, t); });
  }
  void on_node_down(CoordCtx& ctx, NodeId id) override {
    clock_.coord(kCoordOther, [&] { inner_.on_node_down(ctx, id); });
  }
  void on_node_up(CoordCtx& ctx, NodeId id) override {
    clock_.coord(kCoordOther, [&] { inner_.on_node_up(ctx, id); });
  }
  void on_set_k(CoordCtx& ctx, std::size_t k) override {
    clock_.coord(kCoordOther, [&] { inner_.on_set_k(ctx, k); });
  }
  const std::vector<NodeId>& topk() const override { return inner_.topk(); }
  const MonitorStats& monitor_stats() const noexcept override {
    return inner_.monitor_stats();
  }

 private:
  CoordinatorAlgo& inner_;
  CallbackClock& clock_;
};

/// Records step-level spans: totals always, the spans themselves only
/// when asked to keep them.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool keep) : keep_(keep) {}

  void begin_step(std::uint64_t steps) {
    if (keep_ && spans_.capacity() == 0) spans_.reserve(steps * 7);
    step_start_ = now_ns();
    step_index_ = static_cast<std::int32_t>(spans_.size());
    if (keep_) spans_.push_back({"step", step_start_, 0, -1});
  }
  /// Runs `body` inside a child span of the current step and adds its
  /// duration to `total`.
  template <typename F>
  void child(const char* name, double& total, F&& body) {
    const std::int64_t t0 = now_ns();
    body();
    const std::int64_t t1 = now_ns();
    total += static_cast<double>(t1 - t0);
    if (keep_) spans_.push_back({name, t0, t1, step_index_});
  }
  void end_step(double& total) {
    const std::int64_t t1 = now_ns();
    total += static_cast<double>(t1 - step_start_);
    if (keep_) spans_[static_cast<std::size_t>(step_index_)].end = t1;
  }
  std::vector<Span> take() { return std::move(spans_); }

 private:
  bool keep_;
  std::vector<Span> spans_;
  std::int64_t step_start_ = 0;
  std::int32_t step_index_ = -1;
};

double seconds_since(std::int64_t start) {
  return static_cast<double>(now_ns() - start) / 1e9;
}

/// Mirror of run_scenario's time-0 .. steps loop for a monolithic
/// deployment, including its fault-event and recovery-window handling.
Ledger run_monolithic(const exp::Scenario& sc, TraceLevel level, bool keep) {
  Ledger L;
  L.steps = sc.steps;
  const FaultPlan plan(sc.faults, sc.n, sc.k, sc.seed);
  const bool faulty = !plan.empty();
  const std::size_t N = faulty ? plan.total_nodes() : sc.n;
  const bool track = sc.validation != RunConfig::Validation::kOff;
  const RunConfig cfg = sc.run_config();
  // The replica mirrors membership churn; a dynamic-k event would swap
  // the ground-truth tracker mid-run, which no workload needs.
  for (const FaultEvent& ev : plan.events()) {
    if (ev.kind == FaultEvent::Kind::kSetK) {
      throw std::invalid_argument("traced run: dynamic-k plans are not mirrored");
    }
  }

  const std::int64_t wall_start = now_ns();
  auto streams = make_stream_set(sc.stream, N, sc.seed);
  Cluster cluster(N, sc.seed, sc.network);
  exp::RolePair pair = exp::make_role_pair(cluster, sc.monitor, sc.k);
  if (!pair.native) {
    throw std::invalid_argument("traced run needs a native monitor");
  }
  CallbackClock clock(cluster);
  std::optional<TimedCoordinator> timed_coord;
  std::vector<std::unique_ptr<NodeAlgo>> timed_nodes;
  CoordinatorAlgo* coord = pair.coordinator.get();
  std::vector<std::unique_ptr<NodeAlgo>>* nodes = &pair.nodes;
  if (level == TraceLevel::kCallbacks) {
    timed_coord.emplace(*pair.coordinator, clock);
    coord = &*timed_coord;
    timed_nodes.reserve(pair.nodes.size());
    for (auto& n : pair.nodes) {
      timed_nodes.push_back(std::make_unique<TimedNode>(std::move(n), clock));
    }
    nodes = &timed_nodes;
  }
  SimDriver driver(cluster, *coord, *nodes, /*auto_deliver=*/true, 1);

  GroundTruthTracker truth(N, sc.k);
  RunResult result;
  result.config = cfg;
  const std::string detail = " (network " + sc.network.name() + ")";
  const auto check = [&](TimeStep t) {
    check_answer_step(truth, coord->topk(), nullptr, cfg, coord->name(),
                      detail, t, &result, /*throw_on_error=*/false);
  };

  std::vector<char> down(N, 0);
  if (faulty) {
    driver.set_fault_plan(&plan);
    for (NodeId id = static_cast<NodeId>(sc.n); id < N; ++id) {
      down[id] = 1;
      cluster.net().set_node_down(id);
      if (track) truth.set_value(id, kMinusInf);
    }
  }
  L.build_s = seconds_since(wall_start);

  const bool quiet_streams = streams.quiet_capable();
  if (!quiet_streams) streams.plan_steps(sc.steps + 1);
  std::vector<Value> values(N, 0);
  std::vector<Value> incoming(N);
  std::vector<NodeId> changed;
  changed.reserve(N);

  // run_scenario's observe(), split at the layer boundaries: the stream
  // advance (with the change scan), the cluster writes, the ground-truth
  // writes. The two write passes touch disjoint state, so running them
  // one after the other leaves exactly what the interleaved loop leaves.
  const auto advance = [&] {
    if (quiet_streams) {
      streams.advance_all_active(values, changed);
    } else {
      streams.advance_all(incoming);
      changed.clear();
      for (NodeId id = 0; id < N; ++id) {
        if (incoming[id] != values[id] && !down[id]) changed.push_back(id);
      }
      values.swap(incoming);
    }
  };
  const auto write_cluster = [&] {
    for (const NodeId id : changed) {
      if (!down[id]) cluster.set_value(id, values[id]);
    }
  };
  const auto write_truth = [&] {
    if (!track) return;
    for (const NodeId id : changed) {
      if (!down[id]) truth.set_value(id, values[id]);
    }
  };

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
          if (track) truth.set_value(ev.node, kMinusInf);
          break;
        case FaultEvent::Kind::kRecover:
          down[ev.node] = 0;
          cluster.set_value(ev.node, values[ev.node]);
          if (track) truth.set_value(ev.node, values[ev.node]);
          break;
        case FaultEvent::Kind::kJoin:
          for (std::size_t i = 0; i < ev.count; ++i) {
            const NodeId id = ev.node + static_cast<NodeId>(i);
            down[id] = 0;
            cluster.set_value(id, values[id]);
            if (track) truth.set_value(id, values[id]);
          }
          break;
        case FaultEvent::Kind::kSetK:  // rejected above
        case FaultEvent::Kind::kLag:
        case FaultEvent::Kind::kStale:
        case FaultEvent::Kind::kMute:
        case FaultEvent::Kind::kHeal:
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

  AnswerHash hash;
  cluster.stats().begin_step(0);
  advance();
  write_cluster();
  write_truth();
  const std::int64_t init_start = now_ns();
  driver.initialize();
  L.initialize_s = seconds_since(init_start);
  check(0);
  hash.add(0, coord->topk());
  L.init_s = seconds_since(wall_start);
  L.setup_msgs = cluster.stats().total();
  L.setup_filter_resets = coord->monitor_stats().filter_resets;

  // Steady-phase baselines.
  const CommStats stats0 = cluster.stats();
  const std::uint64_t dropped0 = cluster.net().dropped_deliveries();
  const std::uint64_t ticks0 = driver.now();
  const MonitorStats mon0 = coord->monitor_stats();
  const std::uint64_t rebuilds0 = truth.full_rebuilds();
  const std::uint64_t rescans0 = truth.boundary_rescans();
  clock.node_ = {};
  clock.coord_ = {};

  SpanRecorder rec(keep);
  for (TimeStep t = 1; t <= sc.steps; ++t) {
    cluster.stats().begin_step(t);
    rec.begin_step(sc.steps);
    rec.child("streams.advance", L.streams_ns, advance);
    L.changed += changed.size();
    rec.child("observe.set_value", L.set_value_ns, write_cluster);
    rec.child("truth.update", L.truth_update_ns, write_truth);
    if (faulty) rec.child("faults.apply", L.faults_ns, [&] { apply_events(t); });
    const std::uint64_t errors_before = result.error_steps;
    const std::uint64_t a0 = thread_alloc_count();
    rec.child("driver.step", L.driver_ns, [&] { driver.step(t, changed); });
    L.driver_allocs += thread_alloc_count() - a0;
    rec.child("truth.check", L.check_ns, [&] { check(t); });
    if (win_open && result.error_steps != errors_before) {
      const std::uint64_t w = driver.now() - win_tick;
      for (std::size_t i = win_begin; i < win_end; ++i) {
        result.recovery_ticks[i] = w;
      }
    }
    hash.add(t, coord->topk());
    rec.end_step(L.step_ns);
  }
  L.wall_s = seconds_since(wall_start);

  const CommStats& stats = cluster.stats();
  L.upstream = stats.upstream() - stats0.upstream();
  L.unicast = stats.unicast() - stats0.unicast();
  L.broadcast = stats.broadcast() - stats0.broadcast();
  L.dropped = cluster.net().dropped_deliveries() - dropped0;
  L.ticks = driver.now() - ticks0;
  L.truth_full_rebuilds = truth.full_rebuilds() - rebuilds0;
  L.truth_boundary_rescans = truth.boundary_rescans() - rescans0;
  const MonitorStats& mon = coord->monitor_stats();
  L.protocol_runs = mon.protocol_runs - mon0.protocol_runs;
  L.violations = mon.violations - mon0.violations;
  L.resyncs = mon.resyncs;
  L.resync_retries = mon.resync_retries;
  L.max_recovery_ticks = result.max_recovery_ticks();
  L.node = clock.node_;
  L.coord = clock.coord_;
  L.fp = make_fingerprint(stats, CommStats{}, result.error_steps, hash.value());
  L.spans = rec.take();
  return L;
}

/// Mirror of run_sharded_scenario's loop for a fault-free filter
/// deployment (the only sharded workload the benchmark has).
Ledger run_sharded(const exp::Scenario& sc, bool keep) {
  Ledger L;
  L.steps = sc.steps;
  if (sc.faults != "none") {
    throw std::invalid_argument("traced sharded run supports no fault plan");
  }
  const auto [spec, shards_param] = exp::split_shards_param(sc.monitor);
  ShardedSpec dspec;
  if (spec == "topk_filter?nobeacon") {
    dspec.suppress_idle_broadcasts = true;
  } else if (spec != "topk_filter") {
    throw std::invalid_argument("traced sharded run supports topk_filter only");
  }
  const std::size_t N = sc.n;
  const bool track = sc.validation != RunConfig::Validation::kOff;
  const RunConfig cfg = sc.run_config();

  const std::int64_t wall_start = now_ns();
  auto streams = make_stream_set(sc.stream, N, sc.seed);
  dspec.monitor = ShardedSpec::Monitor::kFilter;
  dspec.n = N;
  dspec.k = sc.k;
  dspec.shards = shards_param != 0 ? shards_param : sc.shards;
  dspec.seed = sc.seed;
  dspec.network = sc.network;
  dspec.workers = 1;
  ShardedDeployment dep(dspec);
  L.build_s = seconds_since(wall_start);

  GroundTruthTracker truth(N, sc.k);
  RunResult result;
  result.config = cfg;
  const std::string detail = " (network " + sc.network.name() + ", shards " +
                             std::to_string(dspec.shards) + ")";
  const auto check = [&](TimeStep t) {
    check_answer_step(truth, dep.topk(), nullptr, cfg, dep.name(), detail, t,
                      &result, /*throw_on_error=*/false);
  };
  const auto begin_step = [&](TimeStep t) {
    for (std::size_t s = 0; s < dep.shards(); ++s) {
      dep.shard_cluster(s).stats().begin_step(t);
    }
  };
  const auto dropped = [&] {
    std::uint64_t d = 0;
    for (std::size_t s = 0; s < dep.shards(); ++s) {
      d += dep.shard_cluster(s).net().dropped_deliveries();
    }
    return d;
  };

  const bool quiet_streams = streams.quiet_capable();
  if (!quiet_streams) streams.plan_steps(sc.steps + 1);
  std::vector<Value> values(N, 0);
  std::vector<Value> incoming(N);
  std::vector<NodeId> changed;
  changed.reserve(N);
  const auto advance = [&] {
    if (quiet_streams) {
      streams.advance_all_active(values, changed);
    } else {
      streams.advance_all(incoming);
      changed.clear();
      for (NodeId id = 0; id < N; ++id) {
        if (incoming[id] != values[id]) changed.push_back(id);
      }
      values.swap(incoming);
    }
  };
  const auto write_cluster = [&] {
    for (const NodeId id : changed) dep.set_value(id, values[id]);
  };
  const auto write_truth = [&] {
    if (!track) return;
    for (const NodeId id : changed) truth.set_value(id, values[id]);
  };

  AnswerHash hash;
  begin_step(0);
  advance();
  write_cluster();
  write_truth();
  const std::int64_t init_start = now_ns();
  dep.initialize();
  L.initialize_s = seconds_since(init_start);
  check(0);
  hash.add(0, dep.topk());
  L.init_s = seconds_since(wall_start);
  const CommStats node0 = dep.node_shard_comm();
  const CommStats root0 = dep.shard_root_comm();
  const MonitorStats mon0 = dep.monitor_totals();
  L.setup_msgs = node0.total() + root0.total();
  L.setup_filter_resets = mon0.filter_resets;
  const std::uint64_t dropped0 = dropped();
  const std::uint64_t ticks0 = dep.ticks();
  const std::uint64_t rebuilds0 = truth.full_rebuilds();
  const std::uint64_t rescans0 = truth.boundary_rescans();

  SpanRecorder rec(keep);
  for (TimeStep t = 1; t <= sc.steps; ++t) {
    begin_step(t);
    rec.begin_step(sc.steps);
    rec.child("streams.advance", L.streams_ns, advance);
    L.changed += changed.size();
    rec.child("observe.set_value", L.set_value_ns, write_cluster);
    rec.child("truth.update", L.truth_update_ns, write_truth);
    const std::uint64_t a0 = thread_alloc_count();
    rec.child("driver.step", L.driver_ns, [&] { dep.step(t, changed); });
    L.driver_allocs += thread_alloc_count() - a0;
    rec.child("truth.check", L.check_ns, [&] { check(t); });
    hash.add(t, dep.topk());
    rec.end_step(L.step_ns);
  }
  L.wall_s = seconds_since(wall_start);

  const CommStats node = dep.node_shard_comm();
  const CommStats& root = dep.shard_root_comm();
  L.upstream = node.upstream() - node0.upstream();
  L.unicast = node.unicast() - node0.unicast();
  L.broadcast = node.broadcast() - node0.broadcast();
  L.root_msgs = root.total() - root0.total();
  L.dropped = dropped() - dropped0;
  L.ticks = dep.ticks() - ticks0;
  L.truth_full_rebuilds = truth.full_rebuilds() - rebuilds0;
  L.truth_boundary_rescans = truth.boundary_rescans() - rescans0;
  const MonitorStats mon = dep.monitor_totals();
  L.protocol_runs = mon.protocol_runs - mon0.protocol_runs;
  L.violations = mon.violations - mon0.violations;
  L.resyncs = mon.resyncs;
  L.resync_retries = mon.resync_retries;
  L.fp = make_fingerprint(node, root, result.error_steps, hash.value());
  L.spans = rec.take();
  return L;
}

/// A node role that does nothing, for the timer calibration.
class IdleNode final : public NodeAlgo {};
class IdleCoordinator final : public CoordinatorAlgo {
 public:
  std::string_view name() const override { return "idle"; }
  const std::vector<NodeId>& topk() const override { return none_; }

 private:
  std::vector<NodeId> none_;
};

}  // namespace

Ledger run_traced(const Workload& w, std::uint64_t seed, TraceLevel level,
                  bool keep_spans) {
  const exp::Scenario sc = make_scenario(w, seed, w.steps);
  const auto [spec, shards_param] = exp::split_shards_param(sc.monitor);
  const std::size_t shards = shards_param != 0 ? shards_param : sc.shards;
  return shards > 1 ? run_sharded(sc, keep_spans)
                    : run_monolithic(sc, level, keep_spans);
}

TimerCost calibrate_callback_timer() {
  Cluster cluster(1, 1);
  CallbackClock clock(cluster);
  IdleCoordinator coord;
  std::vector<std::unique_ptr<NodeAlgo>> nodes;
  nodes.push_back(std::make_unique<IdleNode>());
  nodes.push_back(std::make_unique<TimedNode>(std::make_unique<IdleNode>(), clock));
  SimDriver driver(cluster, coord, std::span(nodes.data(), 1), true, 1);
  NodeCtx ctx(driver, cluster, 0);
  NodeAlgo* direct = nodes[0].get();
  NodeAlgo* timed = nodes[1].get();

  constexpr int kCalls = 20'000;
  const auto per_call_ns = [&](NodeAlgo* algo) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kCalls; ++i) algo->on_observe(ctx, 0, 1);
    return static_cast<double>(now_ns() - t0) / kCalls;
  };
  std::vector<double> pair;
  std::vector<double> inner;
  std::vector<double> bare;
  for (int batch = 0; batch < 9; ++batch) {
    const double direct_ns = per_call_ns(direct);
    clock.node_ = {};
    clock.time_all();
    pair.push_back(per_call_ns(timed) - direct_ns);
    inner.push_back(clock.node_[kNodeObserve].ns / kCalls - direct_ns);
    clock.time_none();
    bare.push_back(per_call_ns(timed) - direct_ns);
  }
  TimerCost cost;
  cost.pair_ns = std::max(0.0, median(std::move(pair)));
  cost.inner_ns = std::max(0.0, median(std::move(inner)));
  cost.bare_ns = std::max(0.0, median(std::move(bare)));
  return cost;
}

}  // namespace perfbench
