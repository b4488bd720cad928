// The event loop that drives a role-separated monitor (one CoordinatorAlgo
// plus n NodeAlgos) over a cluster.
//
// Time structure: each observation step spans one or more network *ticks*.
// Per tick the driver services, in deterministic order,
//
//   1. every node in id order: due charged messages (on_message), then the
//      tick's Control broadcasts (on_control), then its armed timer
//      (on_timer) — messages strictly before controls, because a control
//      queued in the same coordinator phase as a broadcast logically
//      follows it (a winner announcement must exclude its winner before
//      the next selection iteration convenes);
//   2. the coordinator: due charged messages in arrival order;
//   3. the coordinator's armed timer.
//
// Ticks repeat until quiescence (no armed timer, no pending delivery, no
// pending control) or, when the NetworkSpec sets a tick budget, until the
// budget expires — in-flight messages then carry over into later steps.
// Under the instant NetworkSpec this schedule reproduces the paper's
// lock-step protocol rounds exactly: a beacon
// broadcast in phase 4 of tick T reaches nodes in phase 2 of tick T+1,
// and reports sent there reach the coordinator in phase 2 of the same
// tick — the paper's node-phase / coordinator-phase alternation.
//
// Sparse scan: phase 1 only *visits* the union of {nodes with due mail,
// nodes with an armed timer} — for every other node all three sub-phases
// are no-ops, so skipping them is output-identical while making a settled
// tick O(active) instead of O(n). Ticks that deliver a Control broadcast
// fall back to the dense scan (a control reaches every node by
// definition), as does set_dense_loop(true), the benchmark/diagnostic
// escape hatch. Within the scan, nodes whose due mail is purely
// broadcasts take the bulk fan-out: the instant network commits each
// node's unread log suffix in O(1) and delivers it in place
// (Network::deliver_broadcasts) — same messages, same order as a drain,
// none of the per-node buffer traffic. Session broadcasts (the protocol
// round beacons) make only the nodes listening to them due
// (NodeCtx::set_listening), so a beacon costs O(active), not O(n),
// callbacks.
//
// Observation sparsity follows the same contract: step(t, changed) runs
// on_observe only for nodes whose value changed this step plus nodes that
// requested unconditional observation via NodeCtx::set_needs_observe —
// the flag every algorithm whose on_observe is not a no-op on an
// unchanged value must keep set (it starts set; see roles.hpp).
//
// Timer semantics: arming from a node's on_message/on_control fires in
// the same tick's node timer slot; arming from within on_timer fires next
// tick (ditto for the coordinator in phases 2-3). This is what lets a
// protocol session convene in one tick and run its round 0 in the next.
//
// Parallel tick loop (workers > 1): phase 1 — the node scan — is the only
// parallel region. The NodeRuntime bit words are partitioned into W
// contiguous ranges (whole 64-bit words, so every bit a shard mutates
// lives in a word it owns); a persistent WorkerPool runs the scan of each
// range concurrently, with every shared-state side effect a node callback
// can cause (ctx.send, ctx.signal, drain accounting) staged into that
// shard's private buffers. At the tick barrier the main thread replays
// the staged effects in shard order — i.e. ascending node id order, the
// exact serial order — so message seq stamps, the scheduled-delivery
// hash, signal order, stats and taps are all byte-identical to
// workers == 1. The coordinator phase, observe callbacks' surrounding
// step logic, and everything else stay serial. Every role pair is one
// independent NodeAlgo object per node, so no node callback touches
// another node's state. Full design: docs/architecture.md, "Parallel
// tick loop".
//
// Threading contract: every public method below is owner-thread only —
// the driver is externally single-threaded; parallelism is an internal
// implementation detail of the tick scan. NodeCtx methods are callable
// from worker shards only because they route through the staged plumbing
// marked below.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/roles.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "util/bitset.hpp"
#include "util/worker_pool.hpp"

namespace topkmon {

/// The event loop driving one role-separated deployment (coordinator +
/// n node algorithms) over a cluster: observation steps, delivery
/// ticks, timers and the uncharged control plane, with the sparse
/// activity-driven scan and the bulk broadcast fan-out documented in
/// the header comment above and in docs/architecture.md.
class SimDriver {
 public:
  /// `native` must be true (kept because perfbench/src/traced.cpp passes
  /// it); false, the retired lock-step bridge, throws
  /// std::invalid_argument. `workers` is the tick-scan parallelism: 1
  /// runs the serial loop (no pool, no staging), W > 1 shards the scan
  /// across W threads with byte-identical output.
  SimDriver(Cluster& cluster, CoordinatorAlgo& coordinator,
            std::span<const std::unique_ptr<NodeAlgo>> nodes,
            bool native, std::size_t workers = 1);

  /// Time 0: values must already be set on the cluster. Runs every node's
  /// on_init, the coordinator's on_init, and settles to quiescence (the
  /// tick budget does not apply to initialization: setup completes before
  /// the observation cadence starts).
  void initialize();

  /// One observation step (values already set). Runs on_observe for every
  /// node, on_step_begin, the tick loop, then on_step_end.
  void step(TimeStep t);

  /// One observation step with activity information: `changed` lists the
  /// nodes whose value differs from the previous step (any order — the
  /// observe scan re-sorts by id via its bitset). on_observe runs only
  /// for those nodes plus the needs-observe set — identical outcomes,
  /// O(active) cost. Ignored (dense observe) under set_dense_loop(true).
  void step(TimeStep t, std::span<const NodeId> changed);

  /// Drains scheduled deliveries and timers to quiescence without running
  /// an observation phase (subject to the same per-step tick budget as a
  /// step). The sharded runtime (core/root_merge.hpp) uses it to flush
  /// coordinator traffic injected between steps — re-anchoring broadcasts
  /// and renegotiation sessions; a no-op when nothing is pending.
  /// Threading: owner thread only, like step().
  void pump();

  /// Like pump(), but settles to quiescence regardless of the tick
  /// budget, as initialize() does. The sharded runtime uses it for the
  /// extremum sessions of a requery or quota move, whose exact result the
  /// root merges before the next step. Owner thread only.
  void quiesce();

  /// Forces the legacy dense per-tick scan and dense observe loop
  /// (diagnostics / sparse-vs-dense benchmarking; output-identical).
  void set_dense_loop(bool dense) noexcept { dense_ = dense; }

  /// Attaches a fault-injection schedule (sim/fault_plan.hpp). `plan`
  /// must outlive the driver (nullptr detaches). Events fire at the
  /// first delivery tick of their scheduled step, before any mail or
  /// timer is serviced — serially, on the owner thread, so the alive
  /// set is stable within a tick even under workers > 1. Call before
  /// initialize(): nodes the plan introduces later via join events must
  /// be marked down (Network::set_node_down) before initialization so
  /// their on_init is deferred to the join. With no plan attached the
  /// event loop is byte-identical to a build without fault support.
  /// Throws std::invalid_argument if the plan's node provisioning does
  /// not match the cluster size.
  void set_fault_plan(const FaultPlan* plan);

  /// Ticks consumed so far (diagnostics; grows monotonically).
  SimTime now() const noexcept { return cluster_.net().now(); }

  /// Tick-scan parallelism this driver was built with (>= 1).
  std::size_t workers() const noexcept {
    return shards_.empty() ? 1 : shards_.size();
  }

  // -- context plumbing (used by NodeCtx / CoordCtx) ------------------------
  // Per-node scalars (armed, needs-observe) live in the cluster's shared
  // structure-of-arrays NodeRuntime, next to the network's due-mail bits
  // the tick scan unions them with. The node-side entry points
  // (raise_signal, node_send, arm_node) are parallel-phase aware: on a
  // worker shard they stage into the shard's private buffers (via the
  // thread-local stage pointer) for the ordered replay at the tick
  // barrier; on the owner thread they apply directly.

  /// Records an uncharged upstream signal for the current step. Staged in
  /// shard raise order during a parallel phase (replay preserves the
  /// serial order: shard-major == ascending node id).
  void raise_signal(Signal s) {
    if (t_stage_ != nullptr) {
      t_stage_->signals.push_back(s);
    } else {
      signals_.push_back(s);
    }
  }
  /// Signals raised since the step began, in raise order. Owner thread
  /// only (coordinator phase — staged signals are merged by then).
  const std::vector<Signal>& signals() const noexcept { return signals_; }
  /// Queues an uncharged Control broadcast for the next node phase.
  /// Owner thread only (only coordinator callbacks queue controls, and
  /// the coordinator phase is serial).
  void queue_control(const Control& c) { pending_controls_.push_back(c); }
  /// Node `from` sends `m` upstream (charged). Staged during a parallel
  /// phase — the network's send side (seq stamps, inboxes, stats) is
  /// owner-thread only — and replayed in serial order at the barrier.
  /// Both the serial path and the barrier replay route through
  /// dispatch_node_send, so adversarial degradations (lag/stale/mute)
  /// apply identically for every --workers value.
  void node_send(NodeId from, Message m) {
    if (t_stage_ != nullptr) {
      m.from = from;  // replay target; node_send re-stamps it anyway
      t_stage_->sends.push_back(m);
    } else {
      dispatch_node_send(from, m);
    }
  }
  /// Arms node id's timer for the next node timer phase (idempotent).
  /// Parallel-phase safe for the id's owning shard: the bit write lands
  /// in a shard-owned word; the shared counter delta is staged.
  void arm_node(NodeId id) {
    IdBitset& armed = cluster_.runtime().armed;
    if (!armed.test(id)) {
      armed.set(id);
      if (t_stage_ != nullptr) {
        ++t_stage_->armed_delta;
      } else {
        ++armed_nodes_;
      }
    }
  }
  /// Arms the coordinator's timer for the next coordinator timer phase.
  /// Owner thread only.
  void arm_coordinator() noexcept { coord_armed_ = true; }
  /// Adds/removes node id from the unconditional-observe set. Parallel-
  /// phase safe for the id's owning shard (bit write in a shard-owned
  /// word; no counter).
  void set_needs_observe(NodeId id, bool needs) {
    cluster_.runtime().needs_observe.assign(id, needs);
  }

 private:
  /// One worker's private staging area for a parallel phase. Cache-line
  /// aligned so two shards' hot counters never share a line.
  struct alignas(64) WorkerShard {
    std::vector<Message> sends;    ///< staged ctx.send()s (from = sender)
    std::vector<Signal> signals;   ///< staged ctx.signal()s, raise order
    std::vector<Message> mail;     ///< per-shard drain scratch
    std::ptrdiff_t armed_delta = 0;  ///< net armed-counter change
    Network::DrainStage drain;     ///< staged network accounting
    std::exception_ptr error;      ///< first exception in this shard
  };

  void settle(bool respect_budget);
  void run_tick();
  void run_tick_dense();
  /// True iff an unapplied fault event is scheduled at or before the
  /// current observation step (it must fire on the next tick).
  bool fault_due() const noexcept;
  /// Fires every due fault event in schedule order: crash/leave freeze
  /// the node's armed timer and drop it from the transport; recover/join
  /// restore them and run the node's on_recover (join: on_init first);
  /// set-k forwards to the coordinator. Owner thread, tick head only.
  void apply_due_faults();
  void apply_node_down(NodeId id);
  void apply_node_up(NodeId id, bool first_time);
  /// The single funnel for charged node->coordinator traffic. With no
  /// degraded node the funnel is one empty-vector test on top of
  /// Network::node_send; otherwise it applies the sender's degradation:
  /// mute discards the message, stale rewrites a value-bearing payload
  /// to the frozen snapshot, lag parks the message in the held queue.
  void dispatch_node_send(NodeId from, Message m);
  /// Re-injects every held (lagged) message whose release tick has
  /// arrived, in (release, send-seq) order. Owner thread, tick head.
  void release_due_held();
  /// Earliest release tick over the held queue (held_ must be non-empty;
  /// the queue is kept sorted, so this is the front element).
  SimTime earliest_held_release() const noexcept {
    return held_.front().release;
  }
  /// Phase-1 body for one node (mail -> controls -> timer). `stage` is
  /// the servicing shard during a parallel phase, nullptr on the serial
  /// path (side effects then apply directly — the workers == 1 loop is
  /// exactly the pre-parallel code).
  void service_node(NodeId id, WorkerShard* stage);
  /// Phases 2-3 (coordinator mail, coordinator timer).
  void service_coordinator();
  bool anything_scheduled() const noexcept;

  /// Runs `body(shard, word_lo, word_hi)` for every shard over its
  /// contiguous word range of the n-node bit arrays, in parallel, then
  /// merges all staged effects in shard order (the tick barrier).
  /// Exceptions are rethrown deterministically: lowest shard index wins
  /// (== first in serial order), after every stage is committed.
  template <typename Body>
  void run_sharded(Body&& body);
  /// The ordered merge half of run_sharded (commit drains and armed
  /// deltas, rethrow, replay signals and sends in shard order).
  void merge_shards();

  Cluster& cluster_;
  CoordinatorAlgo& coord_;
  std::span<const std::unique_ptr<NodeAlgo>> nodes_;
  bool dense_ = false;

  CoordCtx coord_ctx_;

  std::vector<Signal> signals_;
  std::vector<Control> pending_controls_;
  std::vector<Control> delivering_controls_;  // double-buffer for phase 1
  std::vector<Message> mail_scratch_;         // reused across drains/ticks
  IdBitset scan_scratch_;       // per-tick/step union scratch
  std::size_t armed_nodes_ = 0;
  bool coord_armed_ = false;

  // Fault injection (null/empty without a plan; see set_fault_plan).
  const FaultPlan* faults_ = nullptr;
  std::size_t fault_cursor_ = 0;      // next unapplied event
  TimeStep cur_step_ = 0;             // step currently being settled
  IdBitset frozen_armed_;  // timers frozen by a crash, rearmed on recovery

  // Adversarial degradations (sized n only when the attached plan has
  // degradation events; empty otherwise — the send funnel fast-paths on
  // that emptiness, so fault-free and churn-only runs stay
  // byte-identical to the pre-degradation code).
  enum class DegradeMode : std::uint8_t { kNone, kLag, kStale, kMute };
  struct NodeDegrade {
    DegradeMode mode = DegradeMode::kNone;
    std::size_t lag_ticks = 0;  ///< hold delay (kLag)
    Value frozen = 0;           ///< payload snapshot (kStale)
  };
  /// One lagged message parked in the driver. The queue is kept sorted
  /// by (release, insertion order): insertions go through upper_bound on
  /// release, so equal releases preserve send order.
  struct HeldSend {
    SimTime release = 0;
    NodeId from = 0;
    Message m{};
  };
  std::vector<NodeDegrade> degrade_;
  std::vector<HeldSend> held_;

  // Parallel mode (workers > 1): per-worker staging + the persistent
  // pool. Both empty/null at workers == 1 — the serial path never tests
  // more than shards_.empty().
  std::vector<WorkerShard> shards_;
  std::unique_ptr<WorkerPool> pool_;
  /// Points at the shard the current thread is scanning for, nullptr
  /// outside parallel phases. thread_local (not a member copy per
  /// thread): one OS thread services at most one driver's shard at a
  /// time, and SweepRunner workers each drive their own driver.
  static thread_local WorkerShard* t_stage_;
};

}  // namespace topkmon
