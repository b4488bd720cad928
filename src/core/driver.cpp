#include "core/driver.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace topkmon {

namespace {

/// Defensive bound on delivery ticks within one observation step: a
/// correct protocol session needs O(log n) of them, so hitting this means
/// an algorithm armed its timer forever.
constexpr std::uint64_t kMaxTicksPerSettle = 1'000'000;

}  // namespace

thread_local SimDriver::WorkerShard* SimDriver::t_stage_ = nullptr;

void NodeCtx::send(Message m) { driver_.node_send(id_, m); }

void NodeCtx::signal(std::int64_t code) {
  driver_.raise_signal(Signal{id_, code});
}

void NodeCtx::arm_timer() { driver_.arm_node(id_); }

void NodeCtx::set_needs_observe(bool needs) {
  driver_.set_needs_observe(id_, needs);
}

void NodeCtx::set_listening(bool listening) {
  cluster_.net().set_listening(id_, listening);
}

void CoordCtx::control_broadcast(const Control& c) { driver_.queue_control(c); }

const std::vector<Signal>& CoordCtx::signals() const {
  return driver_.signals();
}

void CoordCtx::arm_timer() { driver_.arm_coordinator(); }

void CoordCtx::session_broadcast(Message m) {
  cluster_.net().coord_session_broadcast(m);
}

SimDriver::SimDriver(Cluster& cluster, CoordinatorAlgo& coordinator,
                     std::span<const std::unique_ptr<NodeAlgo>> nodes,
                     bool native, std::size_t workers)
    : cluster_(cluster),
      coord_(coordinator),
      nodes_(nodes),
      coord_ctx_(*this, cluster),
      scan_scratch_(cluster.size()) {
  if (nodes_.size() != cluster_.size()) {
    throw std::invalid_argument("SimDriver: node algo count != cluster size");
  }
  // Kept because perfbench/src/traced.cpp passes it; every pair is native.
  if (!native) {
    throw std::invalid_argument("SimDriver: only native role algorithms run");
  }
  if (workers > 1) {
    shards_.resize(workers);
    pool_ = std::make_unique<WorkerPool>(workers - 1);
  }
  // The armed / needs-observe scalars live in the cluster's shared
  // NodeRuntime; reset them in case this driver replaces an earlier one
  // over the same cluster. Every node starts in the needs-observe set: an
  // algorithm must opt out (NodeCtx::set_needs_observe(false)) to certify
  // that its on_observe is a no-op on an unchanged value. Likewise every
  // node starts listening to session broadcasts (the always-safe value).
  cluster_.runtime().armed.clear_all();
  cluster_.runtime().needs_observe.set_all();
  for (NodeId id = 0; id < cluster_.size(); ++id) {
    cluster_.net().set_listening(id, true);
  }
}

bool SimDriver::anything_scheduled() const noexcept {
  if (armed_nodes_ > 0 || coord_armed_ || !pending_controls_.empty()) {
    return true;
  }
  if (fault_due() || !held_.empty()) return true;
  return cluster_.net().pending_deliveries() > 0;
}

void SimDriver::set_fault_plan(const FaultPlan* plan) {
  if (plan != nullptr && plan->total_nodes() != cluster_.size()) {
    throw std::invalid_argument(
        "SimDriver::set_fault_plan: plan provisions " +
        std::to_string(plan->total_nodes()) + " nodes but the cluster has " +
        std::to_string(cluster_.size()));
  }
  faults_ = plan;
  fault_cursor_ = 0;
  frozen_armed_ = IdBitset(cluster_.size());
  held_.clear();
  if (plan != nullptr && plan->has_degradation()) {
    degrade_.assign(cluster_.size(), NodeDegrade{});
  } else {
    degrade_.clear();
  }
}

void SimDriver::dispatch_node_send(NodeId from, Message m) {
  if (degrade_.empty()) {  // no degradation events in the plan
    cluster_.net().node_send(from, m);
    return;
  }
  const NodeDegrade& d = degrade_[from];
  switch (d.mode) {
    case DegradeMode::kNone:
      break;
    case DegradeMode::kMute:
      return;  // discarded before the network: silent, never charged
    case DegradeMode::kStale:
      // Only value-bearing payloads freeze; the probe-reply flag in m.b
      // and every other kind pass through untouched.
      if (m.kind == MsgKind::kValueReport || m.kind == MsgKind::kViolation) {
        m.a = d.frozen;
      }
      break;
    case DegradeMode::kLag: {
      const HeldSend held{cluster_.net().now() + d.lag_ticks, from, m};
      auto pos = std::upper_bound(
          held_.begin(), held_.end(), held.release,
          [](SimTime r, const HeldSend& h) { return r < h.release; });
      held_.insert(pos, held);
      return;
    }
  }
  cluster_.net().node_send(from, m);
}

void SimDriver::release_due_held() {
  // Held messages re-enter the network at their release tick in queue
  // order ((release, send order) — the queue is insertion-sorted). A
  // released message is past its sender's degradation window by
  // construction, so it goes straight to node_send: no re-degradation,
  // even if the sender was re-degraded meanwhile.
  const SimTime now = cluster_.net().now();
  std::size_t released = 0;
  while (released < held_.size() && held_[released].release <= now) {
    cluster_.net().node_send(held_[released].from, held_[released].m);
    ++released;
  }
  if (released > 0) {
    held_.erase(held_.begin(),
                held_.begin() + static_cast<std::ptrdiff_t>(released));
  }
}

bool SimDriver::fault_due() const noexcept {
  return faults_ != nullptr && fault_cursor_ < faults_->events().size() &&
         faults_->events()[fault_cursor_].step <= cur_step_;
}

void SimDriver::apply_due_faults() {
  // Serial, owner thread, tick head: the alive set changes only here, so
  // it is stable for the whole tick scan even under workers > 1.
  while (fault_due()) {
    const FaultEvent& ev = faults_->events()[fault_cursor_++];
    switch (ev.kind) {
      case FaultEvent::Kind::kCrash:
      case FaultEvent::Kind::kLeave:
        apply_node_down(ev.node);
        break;
      case FaultEvent::Kind::kRecover:
        apply_node_up(ev.node, /*first_time=*/false);
        break;
      case FaultEvent::Kind::kJoin:
        for (std::size_t i = 0; i < ev.count; ++i) {
          apply_node_up(static_cast<NodeId>(ev.node + i),
                        /*first_time=*/true);
        }
        break;
      case FaultEvent::Kind::kSetK:
        coord_.on_set_k(coord_ctx_, ev.count);
        break;
      case FaultEvent::Kind::kLag:
        degrade_[ev.node] = NodeDegrade{DegradeMode::kLag, ev.count, 0};
        break;
      case FaultEvent::Kind::kStale:
        // Snapshot the payload value at degradation time: the node keeps
        // observing (and signalling) truthfully, but every value it
        // *reports* from here until heal is this frozen one.
        degrade_[ev.node] =
            NodeDegrade{DegradeMode::kStale, 0, cluster_.value(ev.node)};
        break;
      case FaultEvent::Kind::kMute:
        degrade_[ev.node] = NodeDegrade{DegradeMode::kMute, 0, 0};
        break;
      case FaultEvent::Kind::kHeal:
        // Already-held lagged messages keep their release schedule.
        degrade_[ev.node] = NodeDegrade{};
        break;
    }
  }
}

void SimDriver::apply_node_down(NodeId id) {
  NodeRuntime& rt = cluster_.runtime();
  if (rt.armed.test(id)) {
    // Freeze the timer across the outage: recovery restores exactly the
    // pre-crash machine state, including a pending on_timer.
    rt.armed.clear(id);
    frozen_armed_.set(id);
    --armed_nodes_;
  }
  cluster_.net().set_node_down(id);  // drops queued + future mail
  // A crash ends any active degradation (the timeline validator enforces
  // the same: a recovered node starts clean and must be re-degraded).
  if (!degrade_.empty()) degrade_[id] = NodeDegrade{};
  coord_.on_node_down(coord_ctx_, id);
}

void SimDriver::apply_node_up(NodeId id, bool first_time) {
  NodeRuntime& rt = cluster_.runtime();
  cluster_.net().set_node_up(id);  // before callbacks: they may send
  if (frozen_armed_.test(id)) {
    frozen_armed_.clear(id);
    rt.armed.set(id);
    ++armed_nodes_;
  }
  // Back into the unconditional-observe set: whatever invariant let the
  // node skip observes may have rotted during the outage; its algorithm
  // re-certifies (set_needs_observe(false)) once re-synced.
  rt.needs_observe.set(id);
  NodeCtx ctx(*this, cluster_, id);
  if (first_time) nodes_[id]->on_init(ctx, cluster_.value(id));
  nodes_[id]->on_recover(ctx);
  coord_.on_node_up(coord_ctx_, id);
}

void SimDriver::service_node(NodeId id, WorkerShard* stage) {
  // Phase 1 for one node: due charged mail first, then the tick's control
  // broadcasts, then the armed timer. Messages precede controls because a
  // control queued in the same coordinator phase as a broadcast (e.g.
  // "next selection iteration starts" after a winner announcement)
  // logically follows it — the lock-step semantics exclude the announced
  // winner before the next iteration convenes.
  Network& net = cluster_.net();
  if (net.down_nodes() != 0 && !net.node_alive(id)) {
    // A down node runs nothing: its mail was dropped at delivery time,
    // its armed bit is frozen, and controls must not reach it either.
    return;
  }
  NodeCtx ctx(*this, cluster_, id);  // transient view; per-node scalars
                                     // live in the shared NodeRuntime
  NodeAlgo& algo = *nodes_[id];
  if (net.node_has_mail(id)) {
    if (net.node_mail_is_broadcast_only(id)) {
      // Bulk broadcast fan-out: the node's mail is exactly the shared
      // log's unread suffix, so deliver it in place — no per-node copy,
      // no merge, O(1) commit. The log stays put across the callbacks:
      // a node algorithm can only send upstream (coordinator inbox),
      // signal, or arm its own timer — nothing grows or compacts the
      // log until the next dirty-node drain or the post-scan compaction
      // (and during a parallel phase sends are staged, so the log is
      // strictly read-only until the barrier).
      const auto deliver = [&](const Message& m) { algo.on_message(ctx, m); };
      if (stage != nullptr) {
        net.deliver_broadcasts_staged(id, stage->drain, deliver);
      } else {
        net.deliver_broadcasts(id, deliver);
      }
    } else {
      std::vector<Message>& mail =
          stage != nullptr ? stage->mail : mail_scratch_;
      if (stage != nullptr) {
        net.drain_node_staged(id, mail, stage->drain);
      } else {
        net.drain_node(id, mail);
      }
      for (const Message& m : mail) {
        algo.on_message(ctx, m);
      }
    }
  }
  for (const Control& c : delivering_controls_) {
    algo.on_control(ctx, c);
  }
  IdBitset& armed = cluster_.runtime().armed;
  if (armed.test(id)) {
    armed.clear(id);
    if (stage != nullptr) {
      --stage->armed_delta;
    } else {
      --armed_nodes_;
    }
    algo.on_timer(ctx);
  }
}

void SimDriver::service_coordinator() {
  // Phase 2: the coordinator's due mail, in arrival order.
  cluster_.net().drain_coordinator(mail_scratch_);
  for (const Message& m : mail_scratch_) {
    coord_.on_message(coord_ctx_, m);
  }
  // Phase 3: the coordinator's armed timer.
  if (coord_armed_) {
    coord_armed_ = false;
    coord_.on_timer(coord_ctx_);
  }
}

void SimDriver::merge_shards() {
  // The tick barrier's ordered merge. Pass 1 — commit the accounting
  // every shard already changed node-local state for (drained unicast
  // buffers, advanced cursors, cleared bits): these must land even if a
  // shard threw, or the network's pending counter and slab free list go
  // permanently out of sync with its per-node structures.
  Network& net = cluster_.net();
  for (WorkerShard& shard : shards_) {
    net.commit_drain_stage(shard.drain);
    armed_nodes_ = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(armed_nodes_) + shard.armed_delta);
    shard.armed_delta = 0;
  }
  // Deterministic error propagation: the lowest shard's exception is the
  // one the serial loop would have hit first. Staged sends/signals are
  // dropped (the serial loop would never have produced them).
  for (WorkerShard& shard : shards_) {
    if (shard.error != nullptr) {
      const std::exception_ptr err = shard.error;
      for (WorkerShard& s : shards_) {
        s.error = nullptr;
        s.sends.clear();
        s.signals.clear();
      }
      std::rethrow_exception(err);
    }
  }
  // Pass 2 — replay staged effects in shard order. Shards cover ascending
  // id ranges and staged in visit order within each shard, so the replay
  // order IS the serial loop's order: signals land in the same sequence
  // the coordinator would have seen, and node_send re-stamps each message
  // with the same seq it would have had — hence the same inbox order,
  // the same per-(message, link) schedule hash, the same stats and taps.
  for (WorkerShard& shard : shards_) {
    signals_.insert(signals_.end(), shard.signals.begin(),
                    shard.signals.end());
    shard.signals.clear();
    for (const Message& m : shard.sends) {
      dispatch_node_send(m.from, m);
    }
    shard.sends.clear();
  }
}

template <typename Body>
void SimDriver::run_sharded(Body&& body) {
  // Word-aligned static partition: shard s owns bit words
  // [s*per, (s+1)*per) — whole words, so every bit mutation a shard makes
  // for its own nodes (due-mail clear on drain, armed clear/set,
  // needs-observe writes) stays in words no other shard touches, and the
  // plain uint64 stores need no atomics. Word ranges may be empty when
  // W > words(n); those shards simply stage nothing.
  const std::size_t nwords = (cluster_.size() + 63) / 64;
  const std::size_t per = (nwords + shards_.size() - 1) / shards_.size();
  // Single-reference capture: the std::function WorkerPool::run builds
  // from this lambda must fit its small-buffer slot — a wider capture
  // list heap-allocates on every tick, breaking the zero-allocation
  // steady state the perf suite pins.
  struct Frame {
    SimDriver* self;
    Body* body;
    std::size_t nwords;
    std::size_t per;
  } frame{this, &body, nwords, per};
  pool_->run(shards_.size(), [&frame](std::size_t s) {
    WorkerShard& shard = frame.self->shards_[s];
    const std::size_t lo = std::min(s * frame.per, frame.nwords);
    const std::size_t hi = std::min(lo + frame.per, frame.nwords);
    t_stage_ = &shard;
    try {
      (*frame.body)(shard, lo, hi);
    } catch (...) {
      shard.error = std::current_exception();
    }
    t_stage_ = nullptr;
  });
  // pool_->run returning is the barrier: every shard's writes
  // happen-before this point (WorkerPool's completion handshake).
  merge_shards();
}

void SimDriver::run_tick_dense() {
  if (!shards_.empty()) {
    run_sharded([&](WorkerShard& shard, std::size_t lo, std::size_t hi) {
      const NodeId end = static_cast<NodeId>(
          std::min(cluster_.size(), hi * 64));
      for (NodeId id = static_cast<NodeId>(lo * 64); id < end; ++id) {
        service_node(id, &shard);
      }
    });
  } else {
    for (NodeId id = 0; id < cluster_.size(); ++id) {
      service_node(id, nullptr);
    }
  }
  // Bulk acks defer log compaction so in-place suffixes stay stable for
  // the rest of the scan; settle the deferred work once per tick.
  cluster_.net().compact_broadcast_log();
  service_coordinator();
}

void SimDriver::run_tick() {
  Network& net = cluster_.net();
  net.advance_clock();
  // Fault events fire at the first tick of their scheduled step, before
  // any mail or timer is serviced. Controls/probes the fault hooks queue
  // are swapped in below, so they deliver this very tick.
  if (fault_due()) apply_due_faults();
  // Lagged messages whose hold expired this tick enter the network now,
  // before any node or coordinator phase, so they are ordinary scheduled
  // deliveries for the rest of the tick.
  if (!held_.empty()) release_due_held();

  delivering_controls_.clear();
  delivering_controls_.swap(pending_controls_);
  if (dense_ || !delivering_controls_.empty()) {
    // A Control broadcast reaches every node by definition; control ticks
    // (and the diagnostic dense mode) keep the full id scan.
    run_tick_dense();
    return;
  }

  // Sparse phase 1: only nodes with due mail or an armed timer can react
  // this tick — for everyone else all sub-phases are provably no-ops.
  // Per-word union of the two NodeRuntime bitsets, visited in ascending
  // id order. Callbacks can only mutate bits of the node being serviced
  // (drain/ack clears its mail bit, on_timer may re-arm itself), so the
  // per-word snapshot taken by the scan stays exact — per shard exactly
  // as in the serial loop, since shards own whole words.
  const NodeRuntime& rt = cluster_.runtime();
  if (!shards_.empty()) {
    run_sharded([&](WorkerShard& shard, std::size_t lo, std::size_t hi) {
      const auto mail = rt.due_mail.words();
      const auto armed = rt.armed.words();
      for (std::size_t w = lo; w < hi; ++w) {
        std::uint64_t bits = armed[w] | mail[w];
        while (bits != 0) {
          const auto bit = static_cast<unsigned>(std::countr_zero(bits));
          bits &= bits - 1;
          service_node(static_cast<NodeId>(w * 64 + bit), &shard);
        }
      }
    });
  } else {
    const auto mail = rt.due_mail.words();
    const auto armed = rt.armed.words();
    for (std::size_t w = 0; w < armed.size(); ++w) {
      std::uint64_t bits = armed[w] | mail[w];
      while (bits != 0) {
        const auto bit = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        service_node(static_cast<NodeId>(w * 64 + bit), nullptr);
      }
    }
  }
  net.compact_broadcast_log();
  service_coordinator();
}

void SimDriver::settle(bool respect_budget) {
  Network& net = cluster_.net();
  const std::uint64_t budget =
      respect_budget ? net.spec().ticks_per_step : 0;
  const SimTime step_end = net.now() + budget;

  std::uint64_t guard = 0;
  for (;;) {
    if (budget != 0 && net.now() >= step_end) break;
    if (!anything_scheduled()) {
      // Fixed observation cadence: with a budget the step always consumes
      // its full tick span, so in-flight mail ages correctly across steps.
      if (budget != 0) net.advance_clock_to(step_end);
      break;
    }
    if (armed_nodes_ == 0 && !coord_armed_ && pending_controls_.empty() &&
        !fault_due()) {
      // Nothing computes until the next delivery: fast-forward the clock
      // (bounded by the step end under a budget). A due fault pins the
      // clock — it fires at the step's first tick, not the delivery's.
      // A held (lagged) message is a pending delivery too: its release
      // tick bounds the jump exactly like the network's earliest one.
      auto due = net.earliest_pending();
      if (!held_.empty() && (!due || earliest_held_release() < *due)) {
        due = earliest_held_release();
      }
      if (due) {
        SimTime target = *due > net.now() ? *due - 1 : net.now();
        if (budget != 0 && target > step_end - 1) target = step_end - 1;
        net.advance_clock_to(target);
      }
    }
    run_tick();
    if (++guard > kMaxTicksPerSettle) {
      throw std::logic_error(
          "SimDriver: step did not quiesce (runaway timer loop?)");
    }
  }
}

void SimDriver::initialize() {
  signals_.clear();
  cur_step_ = 0;
  const std::span<const Value> values = cluster_.values();
  const Network& net = cluster_.net();
  const bool any_down = net.down_nodes() != 0;
  for (NodeId id = 0; id < cluster_.size(); ++id) {
    // Nodes provisioned for a later join event start down: their on_init
    // is deferred to the join tick (apply_node_up with first_time).
    if (any_down && !net.node_alive(id)) continue;
    NodeCtx ctx(*this, cluster_, id);
    nodes_[id]->on_init(ctx, values[id]);
  }
  coord_.on_init(coord_ctx_);
  settle(/*respect_budget=*/false);
  coord_.on_step_end(coord_ctx_, 0);
}

void SimDriver::step(TimeStep t) {
  signals_.clear();
  cur_step_ = t;
  // Dense observe: stream the flat NodeRuntime value array (8-byte
  // stride). Parallelized over the same word-aligned ranges as the tick
  // scan: on_observe can only send (staged), signal (staged), arm its
  // own timer or write its own needs-observe bit (shard-owned words).
  // Down nodes are skipped: their observations are lost for the outage.
  const std::span<const Value> values = cluster_.values();
  const NodeRuntime& rt = cluster_.runtime();
  const bool any_down = cluster_.net().down_nodes() != 0;
  if (!shards_.empty()) {
    run_sharded([&](WorkerShard&, std::size_t lo, std::size_t hi) {
      const NodeId end = static_cast<NodeId>(
          std::min(cluster_.size(), hi * 64));
      for (NodeId id = static_cast<NodeId>(lo * 64); id < end; ++id) {
        if (any_down && !rt.alive.test(id)) continue;
        NodeCtx ctx(*this, cluster_, id);
        nodes_[id]->on_observe(ctx, values[id], t);
      }
    });
  } else {
    for (NodeId id = 0; id < cluster_.size(); ++id) {
      if (any_down && !rt.alive.test(id)) continue;
      NodeCtx ctx(*this, cluster_, id);
      nodes_[id]->on_observe(ctx, values[id], t);
    }
  }
  coord_.on_step_begin(coord_ctx_, t);
  settle(/*respect_budget=*/true);
  coord_.on_step_end(coord_ctx_, t);
}

void SimDriver::step(TimeStep t, std::span<const NodeId> changed) {
  if (dense_) {
    step(t);
    return;
  }
  signals_.clear();
  cur_step_ = t;
  // Observe set = changed nodes ∪ needs-observe nodes, ascending id. For
  // a skipped node the value is unchanged AND its algorithm certified
  // that on_observe is then a no-op, so the outcome (messages, signals,
  // coin flips, counters) is identical to the dense loop's. Down nodes
  // are masked out: their observations are lost for the outage.
  scan_scratch_.copy_from(cluster_.runtime().needs_observe);
  for (const NodeId id : changed) scan_scratch_.set(id);
  if (cluster_.net().down_nodes() != 0) {
    scan_scratch_.mask_with(cluster_.runtime().alive);
  }
  const std::span<const Value> values = cluster_.values();
  if (!shards_.empty()) {
    // The scratch union is immutable during the scan (needs-observe
    // writes go to the live bitset, not the snapshot), so sharding its
    // words is race-free even beyond the word-ownership argument.
    run_sharded([&](WorkerShard&, std::size_t lo, std::size_t hi) {
      const auto words = scan_scratch_.words();
      for (std::size_t w = lo; w < hi; ++w) {
        std::uint64_t bits = words[w];
        while (bits != 0) {
          const auto bit = static_cast<unsigned>(std::countr_zero(bits));
          bits &= bits - 1;
          const auto id = static_cast<NodeId>(w * 64 + bit);
          NodeCtx ctx(*this, cluster_, id);
          nodes_[id]->on_observe(ctx, values[id], t);
        }
      }
    });
  } else {
    for_each_set_bit(scan_scratch_.words(), [&](NodeId id) {
      NodeCtx ctx(*this, cluster_, id);
      nodes_[id]->on_observe(ctx, values[id], t);
    });
  }
  coord_.on_step_begin(coord_ctx_, t);
  settle(/*respect_budget=*/true);
  coord_.on_step_end(coord_ctx_, t);
}

void SimDriver::pump() { settle(/*respect_budget=*/true); }

void SimDriver::quiesce() { settle(/*respect_budget=*/false); }

}  // namespace topkmon
