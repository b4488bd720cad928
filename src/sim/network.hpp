// Message transport between n nodes and the coordinator.
//
// Topology per the paper's model: nodes can send to the coordinator only
// (no node-to-node links); the coordinator can unicast to a single node
// and has a broadcast channel delivering one message to all nodes
// simultaneously (unit cost, following Cormode et al.'s enhanced model).
//
// Delivery is governed by a NetworkSpec policy and a tick clock:
//
//   * Under the default instant spec, every message is deliverable the
//     moment it is sent and the transport reproduces the paper's
//     lock-step semantics exactly. Broadcasts are stored once in a shared
//     log with a per-node read cursor, so a broadcast costs O(1)
//     regardless of n; the log prefix every node has read is compacted
//     away so long runs stay in bounded memory.
//   * Under a delay/jitter/drop/batch spec, each (message, link) pair is
//     assigned a deterministic delivery tick (or dropped) at send time;
//     drains only surface messages whose delivery tick has been reached.
//     Broadcasts fan out into per-link scheduled deliveries. In-flight
//     messages live in a slab of arena-allocated nodes threaded through a
//     bucketed timing wheel keyed by delivery tick (far-future ticks
//     overflow into a small heap); advancing the clock moves each tick's
//     bucket onto per-recipient ready lists. Pushes and pops are O(1) and
//     allocation-free at steady state (the slab free list recycles
//     nodes), and earliest_pending() costs O(1) in n.
//
// Session scope: coord_session_broadcast() is a broadcast whose
// recipients are the nodes whose NodeRuntime::listening bit is set when
// it is issued (protocol-round beacons reach only the nodes still active
// in the session). It is charged exactly like coord_broadcast. Under the
// instant policy the entry goes into the same shared log, tagged in the
// top bit of its seq stamp; it makes only its recipients due, and every
// other live node that has nothing unread skips it at once (its cursor
// moves past the entry), so "a live node whose due bit is clear has read
// the whole log" stays true. A node that is due for other mail skips the
// tagged entries when it reads, because it is not listening then. Under
// a scheduled policy the fan-out covers the recipients only, and each
// gets the same per-link schedule as from coord_broadcast. Neither path
// stores anything per recipient.
//
// Message *sends* are always charged to CommStats — the paper's objective
// counts transmissions; a dropped message still cost its sender one unit.
//
// Activity tracking: the network maintains a per-node "has due mail"
// bitset (`due_mail_words()`), set when a delivery becomes drainable and
// cleared by drain_node(). The SimDriver's sparse event loop visits only
// flagged nodes, making a settled tick O(active), not O(n).
//
// Hot-path drains: the `drain_*(buffer&)` overloads fill a caller-owned
// scratch buffer (cleared first, capacity retained across calls), so a
// settled simulation tick performs zero heap allocations at steady state.
// The returning overloads remain as thin conveniences for tests and
// cold paths.
//
// Threading: the network is single-owner — every method is meant to be
// called from the thread driving the simulation — EXCEPT the explicitly
// marked parallel-phase subset (drain_node_staged /
// deliver_broadcasts_staged / set_listening / node_mail_is_broadcast_only
// / node_has_mail), which the SimDriver's worker shards may call
// concurrently for node ids they own: those methods touch only id-owned
// state (the id's unicast buffer, cursor, ready list, due and listening
// bit words) plus the caller's private DrainStage, never the shared
// accounting. The staged deltas become
// visible via commit_drain_stage() on the owner thread after the tick
// barrier (the WorkerPool join provides the happens-before edge). See
// docs/architecture.md, "Parallel tick loop".
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "sim/comm_stats.hpp"
#include "sim/event_log.hpp"
#include "sim/message.hpp"
#include "sim/network_model.hpp"
#include "sim/node_runtime.hpp"
#include "util/bitset.hpp"
#include "util/types.hpp"

namespace topkmon {

/// The star network with broadcast channel. All sends are recorded in the
/// attached CommStats; the transport itself performs no protocol logic.
class Network {
 public:
  /// Creates an instant-delivery network for `n` nodes charging messages
  /// to `stats`. `stats` must outlive the network.
  Network(std::size_t n, CommStats* stats);

  /// Creates a network with an explicit delivery policy. `seed` feeds the
  /// deterministic per-(message, link) jitter/drop hash; it is independent
  /// of drain order, so runs stay bit-reproducible. When `runtime` is
  /// non-null the network maintains its due-mail bits in
  /// `runtime->due_mail` (the structure-of-arrays state shared with the
  /// SimDriver); otherwise it owns a private bitset. `runtime` must
  /// outlive the network and span at least `n` ids.
  Network(std::size_t n, CommStats* stats, const NetworkSpec& spec,
          std::uint64_t seed, NodeRuntime* runtime = nullptr);

  /// Not copyable or movable: the network aliases external state (the
  /// stats sink, possibly a shared NodeRuntime's due-mail bits) and
  /// due_mail_ may point at its own owned bitset — a memberwise copy or
  /// move would silently alias or dangle into the source object.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Number of node endpoints (the coordinator is not counted).
  std::size_t num_nodes() const noexcept { return cursors_.size(); }

  /// The delivery policy this network was built with.
  const NetworkSpec& spec() const noexcept { return spec_; }

  /// True on the instant-delivery fast path (lock-step semantics; enables
  /// the bulk broadcast fan-out API below).
  bool instant() const noexcept { return instant_; }

  // -- node liveness (fault injection) --------------------------------------
  // Crash semantics live at the transport: a down node's queued mail is
  // discarded, and anything arriving while it is down is dropped *at
  // delivery time* under every policy — instant deliveries drop at send,
  // scheduled deliveries drop at their due tick (a message already in
  // flight when the node recovers is delivered normally). Sends are still
  // charged to CommStats first — the paper's objective counts
  // transmissions — and every undelivered message is counted in
  // dropped_deliveries(). The liveness bits live on the shared
  // NodeRuntime (runtime().alive) so the SimDriver's scans and the
  // transport agree at every tick. Owner thread only; liveness only
  // changes between parallel phases (the driver applies faults at the
  // head of run_tick).

  /// True iff node id is up. No bounds check (hot path).
  bool node_alive(NodeId id) const noexcept { return alive_->test(id); }

  /// Number of currently-down nodes / currently-up nodes.
  std::size_t down_nodes() const noexcept { return down_count_; }
  std::size_t live_nodes() const noexcept {
    return num_nodes() - down_count_;
  }

  /// Takes node id down: drops its queued mail (counted as dropped
  /// deliveries), clears its due bit, and discards everything addressed
  /// to it until set_node_up. Idempotent.
  void set_node_down(NodeId id);

  /// Brings node id back up. Mail that became due during the outage is
  /// gone; delivery resumes with the next send (instant) or the next due
  /// tick (scheduled). Idempotent.
  void set_node_up(NodeId id);

  // -- clock ----------------------------------------------------------------
  /// Current tick. Sends stamp messages with it; drains deliver everything
  /// scheduled at or before it. Stable during a parallel phase (clock
  /// advances happen between phases, on the owner thread).
  SimTime now() const noexcept { return now_; }

  /// Advances the clock by one tick. Owner thread only.
  void advance_clock() { advance_clock_to(now_ + 1); }

  /// Advances the clock to `t` (no-op if `t` is in the past). Under a
  /// scheduled policy, every timing-wheel bucket passed on the way is
  /// moved onto the recipients' ready lists in delivery order. Owner
  /// thread only.
  void advance_clock_to(SimTime t);

  // -- sending --------------------------------------------------------------
  // All sends mutate shared state (seq stamp, inboxes, wheel, stats):
  // owner thread only. Parallel shards stage node sends in the SimDriver
  // and replay them here, in shard order, at the tick barrier.

  /// Node `from` sends `m` to the coordinator (cost 1). Owner thread only.
  void node_send(NodeId from, Message m);

  /// Coordinator sends `m` to node `to` (cost 1). Owner thread only.
  void coord_unicast(NodeId to, Message m);

  /// Coordinator broadcasts `m` to all nodes (cost 1 in the paper's
  /// model). Owner thread only.
  void coord_broadcast(Message m);

  /// Coordinator broadcasts `m` to the nodes listening right now
  /// (NodeRuntime::listening; see the header comment). Charged and tapped
  /// exactly like coord_broadcast. Down listening nodes count as dropped
  /// deliveries under the instant policy; under a scheduled policy they
  /// are dropped at their due tick, as for coord_broadcast. Owner thread
  /// only.
  void coord_session_broadcast(Message m);

  /// Sets node id's listening bit. A change while the node still has
  /// unread instant-mode broadcasts (possible only outside its own mail
  /// read, e.g. from on_observe when a tick budget carried mail over)
  /// first moves the deliverable ones into its unicast buffer, so the
  /// scope of every entry stays the one it was issued with. Parallel-
  /// phase safe for the id's owning shard (id-owned state only).
  void set_listening(NodeId id, bool listening);

  // -- receiving ------------------------------------------------------------
  /// Drains every deliverable message in the coordinator's inbox into
  /// `out` (cleared first; capacity retained), in arrival order. This is
  /// the allocation-free hot path: at steady state neither `out` nor the
  /// internal inbox reallocates. Owner thread only (the coordinator phase
  /// is always serial).
  void drain_coordinator(std::vector<Message>& out);

  /// Convenience overload returning a fresh vector (tests / cold paths).
  /// Owner thread only.
  std::vector<Message> drain_coordinator();

  /// True if the coordinator has deliverable messages. Owner thread only
  /// (reads shared send-side state).
  bool coordinator_has_mail() const noexcept;

  /// Drains node `id`'s deliverable messages into `out` (cleared first;
  /// capacity retained): unicasts addressed to it plus all broadcasts
  /// issued since its last drain, in send order (broadcasts and unicasts
  /// interleaved by issue time; under jitter, by delivery tick first).
  /// Owner thread only (compacts the log, settles shared accounting) —
  /// parallel shards use drain_node_staged. Under the instant policy it
  /// throws std::logic_error for a down node: its cursor still points at
  /// the broadcasts issued during its outage, none of them deliverable.
  /// (A scheduled down node drains empty: its mail drops at the due tick.)
  void drain_node(NodeId id, std::vector<Message>& out);

  /// Convenience overload returning a fresh vector (tests / cold paths).
  std::vector<Message> drain_node(NodeId id);

  // -- parallel-phase drains ------------------------------------------------
  // The SimDriver's worker shards drain the nodes they own concurrently.
  // A drain's per-node effects (clearing the unicast buffer / ready list,
  // advancing the cursor, clearing the due bit) are safe as-is — each id
  // is owned by exactly one shard, and shards own whole due-mail words —
  // but its *shared* effects (pending/ready counters, slab free list,
  // log compaction) are not. The staged variants accumulate those into a
  // caller-owned DrainStage instead; the owner thread applies every
  // shard's stage after the tick barrier via commit_drain_stage(), in
  // shard order. Deliveries surfaced are byte-identical to the unstaged
  // calls (the accounting deltas commute — they are sums and a free-list
  // splice — and compaction is delivery-invisible by contract).

  /// Slab index sentinel (empty list / end of list; also DrainStage's
  /// empty free chain).
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// Shared-state deltas one worker shard accumulates across its
  /// parallel-phase drains, applied later by commit_drain_stage(). Value
  /// type; reusable after commit (commit resets it).
  struct DrainStage {
    std::uint64_t delivered = 0;  ///< pending-delivery decrements owed
    std::uint64_t drained = 0;    ///< ready-list pops owed (scheduled mode)
    std::uint32_t free_head = kNil;  ///< staged slab free chain ...
    std::uint32_t free_tail = kNil;  ///< ... spliced onto the real one
  };

  /// drain_node, minus the shared-state effects: accounting deltas and
  /// freed slab nodes go into `stage`, and the broadcast log is never
  /// compacted (in-place suffixes handed to other shards stay stable; the
  /// driver compacts once per tick at the barrier). Parallel-phase safe
  /// for the id's owning shard.
  void drain_node_staged(NodeId id, std::vector<Message>& out,
                         DrainStage& stage);

  /// deliver_broadcasts, minus the shared-state effects (the
  /// pending-delivery decrement goes into `stage`). Parallel-phase safe
  /// for the id's owning shard; same precondition as deliver_broadcasts.
  template <typename Deliver>
  void deliver_broadcasts_staged(NodeId id, DrainStage& stage,
                                 Deliver&& deliver) {
    stage.delivered += read_broadcasts(id, deliver);
  }

  /// Applies one shard's staged deltas: settles the pending/ready
  /// counters and splices the staged free chain onto the slab free list,
  /// then resets `stage` for reuse. Owner thread only, after the tick
  /// barrier; commits commute, but the driver applies them in shard
  /// order anyway (one fixed order is easier to reason about).
  void commit_drain_stage(DrainStage& stage) noexcept {
    pending_ -= stage.delivered;
    ready_count_ -= stage.drained;
    if (stage.free_head != kNil) {
      slab_[stage.free_tail].next = free_head_;
      free_head_ = stage.free_head;
    }
    stage = DrainStage{};
  }

  /// Bitset over node ids: bit `id` is set iff drain_node(id) would
  /// deliver at least one message at the current tick. Maintained under
  /// every policy; drives the SimDriver's sparse per-tick scan. (Aliases
  /// NodeRuntime::due_mail when the network was built over one.) During
  /// a parallel phase each shard may read/clear only its own words.
  std::span<const std::uint64_t> due_mail_words() const noexcept {
    return due_mail_->words();
  }

  /// Single-node view of due_mail_words() (no bounds check; hot path).
  /// Parallel-phase safe for the id's owning shard.
  bool node_has_mail(NodeId id) const noexcept { return due_mail_->test(id); }

  // -- bulk broadcast fan-out (instant mode) --------------------------------
  // A broadcast tick makes every node due at once; draining each node
  // individually copies the same log suffix n times. Nodes with no
  // pending unicasts ("sparse-clean") can instead read their suffix *in
  // place* from the shared log and commit in O(1), so one pass over the
  // log serves all clean nodes with zero per-message copies.
  // Byte-equivalent to drain_node: a clean node's merge input is the
  // suffix alone.

  /// True iff node id's pending mail consists solely of broadcast-log
  /// entries — the precondition of deliver_broadcasts(). Always false
  /// under a scheduled policy. No bounds check (hot path). Parallel-phase
  /// safe for the id's owning shard.
  bool node_mail_is_broadcast_only(NodeId id) const noexcept {
    return instant_ && unicasts_[id].empty();
  }

  /// Bulk delivery for node id: marks its unread broadcast suffix read,
  /// settles the pending-delivery accounting and clears its due bit, then
  /// calls `deliver(m)` for every entry of that suffix in issue order,
  /// served in place from the shared log (no copy). Session-scoped
  /// entries are skipped when the node is not listening. Requires
  /// node_mail_is_broadcast_only(id) (debug-asserted) — committing a node
  /// with pending unicasts would clear its due bit while its unicasts
  /// stay queued. `deliver` may run node callbacks: those can only send
  /// upstream, so the log neither grows nor shifts under the in-place
  /// reads. Unlike drain_node this never compacts the log (so suffixes
  /// read by other nodes in the same pass stay put) — callers fanning out
  /// to many nodes run compact_broadcast_log() once afterwards. Owner
  /// thread only (settles the shared pending counter) — parallel shards
  /// use deliver_broadcasts_staged. Throws std::logic_error for a down
  /// node, like drain_node.
  template <typename Deliver>
  void deliver_broadcasts(NodeId id, Deliver&& deliver) {
    refuse_down_node(id, "deliver_broadcasts");
    pending_ -= read_broadcasts(id, deliver);
  }

  /// Drops the all-read broadcast-log prefix when worthwhile (cheap
  /// length check, O(n) cursor scan only past the threshold). drain_node
  /// does this implicitly; bulk fan-out passes call it once per tick.
  /// No-op under scheduled policies. Invisible to delivery semantics.
  /// Owner thread only (shifts the log the in-place reads point into).
  void compact_broadcast_log() { maybe_compact_broadcast_log(); }

  /// Total broadcasts ever issued (compaction does not lower this; under
  /// scheduled policies broadcasts are counted without logging).
  std::size_t broadcast_log_size() const noexcept {
    return instant_ ? log_offset_ + bcast_msgs_.size()
                    : static_cast<std::size_t>(broadcasts_issued_);
  }

  // -- delivery accounting (drives event-loop quiescence) -------------------
  // Owner thread only: staged drains leave these counters stale until
  // their commit_drain_stage() at the barrier.

  /// Number of sent-but-not-yet-drained message deliveries (a broadcast
  /// counts once per receiving link — a session-scoped one once per
  /// recipient; dropped links never count).
  std::uint64_t pending_deliveries() const noexcept { return pending_; }

  /// Earliest tick at which a pending message can be drained: `now()`
  /// when something is already deliverable, else the next occupied
  /// timing-wheel bucket / overflow entry; nullopt when idle. O(1) in n.
  std::optional<SimTime> earliest_pending() const;

  /// Total messages lost to the drop policy so far (per link).
  std::uint64_t dropped_deliveries() const noexcept { return dropped_; }

  /// Installs (or clears, with nullptr semantics via empty function) a tap
  /// invoked once per sent message with its direction — e.g.
  /// `net.set_tap(event_log.tap())`. The tap observes; it cannot alter
  /// delivery or accounting.
  void set_tap(std::function<void(MsgDirection, const Message&)> tap) {
    tap_ = std::move(tap);
  }

  /// Copy of the *retained* broadcast log messages in issue order (tests /
  /// tracing). Maintained under the instant policy only — scheduled modes
  /// return an empty log (deliveries live in the slab instead), and a
  /// prefix already read by every node may have been compacted away.
  std::vector<Message> broadcast_log() const { return bcast_msgs_; }

 private:
  struct Stamped {
    std::uint64_t seq;
    Message msg;
  };

  /// Tag bit of a session-scoped entry's stamp in bcast_seqs_ (seq
  /// numbers never reach it). Unicast stamps are never tagged.
  static constexpr std::uint64_t kScopedTag = std::uint64_t{1} << 63;

  /// True iff a node that is not listening skips log entry `i` (relative
  /// to log_offset_).
  bool scoped_entry(std::size_t i) const noexcept {
    return (bcast_seqs_[i] & kScopedTag) != 0;
  }

  /// Throws std::logic_error when node id is down (drain_node,
  /// deliver_broadcasts). One counter test while every node is up.
  void refuse_down_node(NodeId id, const char* what) const {
    if (down_count_ != 0 && !alive_->test(id)) throw_node_down(id, what);
  }
  [[noreturn]] static void throw_node_down(NodeId id, const char* what);

  /// Shared core of deliver_broadcasts(_staged): commits node id's unread
  /// suffix, then delivers it in place. Returns the number of deliveries.
  template <typename Deliver>
  std::size_t read_broadcasts(NodeId id, Deliver& deliver) {
    assert(node_mail_is_broadcast_only(id));
    // Commit first: callbacks then see a node with nothing unread, so a
    // set_listening() from them never has unread entries to re-scope.
    const bool skip_scoped = !listening_->test(id);
    const std::size_t end = bcast_msgs_.size();
    std::size_t i = cursors_[id] - log_offset_;
    cursors_[id] = log_offset_ + end;
    due_mail_->clear(id);
    std::size_t delivered = 0;
    for (; i < end; ++i) {
      if (skip_scoped && scoped_entry(i)) continue;
      ++delivered;
      deliver(bcast_msgs_[i]);
    }
    return delivered;
  }

  /// One in-flight scheduled message, arena-allocated in the slab and
  /// threaded through exactly one list (a wheel bucket, then a ready
  /// list). Recipient queues are nodes 0..n-1, the coordinator is n.
  struct MsgNode {
    Message msg;
    std::uint32_t next = kNil;
    std::uint32_t recipient = 0;
  };

  /// Intrusive singly-linked FIFO into the slab.
  struct MsgList {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// A message scheduled beyond the wheel horizon (rare: only when the
  /// spec's worst-case delay exceeds the wheel span). Min-heap by
  /// (due, seq) so pops replay send order within a tick.
  struct Overflow {
    SimTime due;
    std::uint64_t seq;
    std::uint32_t recipient;
    Message msg;
  };

  /// Deterministic per-(message, link) schedule: delivery tick, or nullopt
  /// when the drop policy loses the message on this link.
  std::optional<SimTime> schedule_link(std::uint64_t seq, std::uint32_t link);

  /// Routes one scheduled delivery: ready list if already due, wheel
  /// bucket within the horizon, overflow heap beyond it.
  void schedule_delivery(std::uint32_t recipient, SimTime due,
                         std::uint64_t seq, const Message& m);

  std::uint32_t slab_alloc(const Message& m, std::uint32_t recipient);
  void slab_free(std::uint32_t idx);
  void append_ready(std::uint32_t recipient, std::uint32_t idx);

  /// Due tick of the next occupied wheel bucket strictly after now()
  /// (kNoTick when the wheel is empty).
  SimTime next_wheel_tick() const;

  /// Moves tick `t`'s deliveries (overflow first — they were sent
  /// earlier, see the seq argument in network.cpp) onto the ready lists.
  void flush_tick(SimTime t);

  /// Shared scheduled-mode drain: with `stage` null the shared effects
  /// (counters, slab frees) apply immediately; with a stage they are
  /// accumulated into it instead (parallel phase).
  void drain_scheduled(std::size_t qi, std::vector<Message>& out,
                       DrainStage* stage = nullptr);

  /// Instant-mode merge of node id's unicasts + unread broadcast suffix
  /// into `out` (send order), clearing the id-owned state (unicast
  /// buffer, cursor, due bit) but none of the shared accounting. Returns
  /// the number of deliveries. Common core of drain_node and
  /// drain_node_staged.
  std::size_t merge_instant_mail(NodeId id, std::vector<Message>& out);

  /// Drops the broadcast-log prefix every node has already read once the
  /// retained log grows past the compaction threshold.
  void maybe_compact_broadcast_log();

  /// Instant mode: how many entries of node id's unread broadcast suffix
  /// it would be delivered (the scoped ones count only if it listens).
  std::size_t unread_broadcast_deliveries(NodeId id) const noexcept;

  NetworkSpec spec_;
  bool instant_ = true;   ///< pure lock-step fast path
  std::uint64_t hash_seed_ = 0;

  CommStats* stats_;
  std::function<void(MsgDirection, const Message&)> tap_;
  std::uint64_t seq_ = 0;  // global send-order stamp
  SimTime now_ = 0;
  std::uint64_t pending_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t broadcasts_issued_ = 0;  // scheduled-mode broadcast counter

  /// Per-node "a drain would deliver something now" flags (all policies).
  /// Points at the shared NodeRuntime's due_mail when one was supplied,
  /// else at owned_due_mail_.
  IdBitset owned_due_mail_;
  IdBitset* due_mail_ = nullptr;

  /// Per-node up/down flags (all set unless faults are injected). Points
  /// at the shared NodeRuntime's alive bits when a runtime was supplied,
  /// else at owned_alive_.
  IdBitset owned_alive_;
  IdBitset* alive_ = nullptr;
  std::size_t down_count_ = 0;

  /// Per-node session-scope flags (all set unless a node clears its
  /// own). Points at the shared NodeRuntime's listening bits when a
  /// runtime was supplied, else at owned_listening_.
  IdBitset owned_listening_;
  IdBitset* listening_ = nullptr;

  // Instant mode: flat inboxes + shared broadcast log with read cursors.
  // The log is split into parallel arrays (messages / seq stamps) so the
  // bulk fan-out hands out contiguous Message spans and the merge in
  // drain_node compares a dense seq array (session-scoped entries carry
  // kScopedTag in it). Cursors are absolute (count of broadcasts read
  // since construction); log_offset_ is the absolute index of
  // bcast_msgs_[0] after prefix compaction.
  std::vector<Message> coord_inbox_;
  std::vector<Message> bcast_msgs_;             // log payloads, issue order
  std::vector<std::uint64_t> bcast_seqs_;       // parallel send-order stamps
  std::vector<std::vector<Stamped>> unicasts_;  // per-node pending unicasts
  std::vector<std::size_t> cursors_;            // per-node broadcast cursor
  std::size_t log_offset_ = 0;

  // Scheduled mode: slab + timing wheel + per-recipient ready lists.
  // wheel_[due & (wheel_mask_)] holds the deliveries of exactly one due
  // tick (every in-wheel due lies within `wheel span` of the clock, so
  // buckets never mix ticks); wheel_bits_ mirrors bucket occupancy for
  // O(span/64) next-event scans. ready_[qi] is (due, seq)-ordered by
  // construction: buckets are flushed in tick order and each bucket's
  // list is appended in send order.
  std::vector<MsgNode> slab_;
  std::uint32_t free_head_ = kNil;
  std::vector<MsgList> wheel_;
  std::vector<std::uint64_t> wheel_bits_;
  std::uint64_t wheel_mask_ = 0;
  std::vector<Overflow> overflow_;  // min-heap by (due, seq)
  std::vector<MsgList> ready_;      // per recipient; index n = coordinator
  std::uint64_t ready_count_ = 0;
};

}  // namespace topkmon
