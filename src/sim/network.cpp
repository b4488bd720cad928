#include "sim/network.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace topkmon {

namespace {

/// Min-heap comparator for the overflow heap: the entry with the
/// smallest (due, seq) is popped first, so deliveries surface in send
/// order within a tick.
struct LaterDelivery {
  bool operator()(const auto& a, const auto& b) const noexcept {
    if (a.due != b.due) return a.due > b.due;
    return a.seq > b.seq;
  }
};

/// "No scheduled tick" sentinel.
constexpr SimTime kNoTick = std::numeric_limits<SimTime>::max();

/// Retained-log length that triggers a compaction scan. Large enough that
/// the O(n) min-cursor scan and the O(tail) erase amortize to nothing per
/// broadcast; small enough that long instant-mode runs stay flat in memory.
constexpr std::size_t kLogCompactThreshold = 4096;

/// Upper bound on the timing-wheel span in ticks. Specs whose worst-case
/// delay fits under this bound (all realistic ones) never touch the
/// overflow heap; larger delays merely fall back to O(log pending) pushes
/// for the far-future tail.
constexpr std::uint64_t kMaxWheelSpan = 4096;

}  // namespace

Network::Network(std::size_t n, CommStats* stats)
    : Network(n, stats, NetworkSpec{}, 0) {}

Network::Network(std::size_t n, CommStats* stats, const NetworkSpec& spec,
                 std::uint64_t seed, NodeRuntime* runtime)
    : spec_(spec),
      instant_(spec.is_instant()),
      stats_(stats),
      unicasts_(n),
      cursors_(n, 0) {
  if (stats_ == nullptr) {
    throw std::invalid_argument("Network requires a CommStats sink");
  }
  if (runtime != nullptr) {
    due_mail_ = &runtime->due_mail;  // shared structure-of-arrays state
    alive_ = &runtime->alive;
    listening_ = &runtime->listening;
  } else {
    owned_due_mail_ = IdBitset(n);
    due_mail_ = &owned_due_mail_;
    owned_alive_ = IdBitset(n);
    owned_alive_.set_all();
    alive_ = &owned_alive_;
    owned_listening_ = IdBitset(n);
    owned_listening_.set_all();
    listening_ = &owned_listening_;
  }
  // Mix the seed once so that a zero scenario seed still decorrelates the
  // link hash from the message sequence numbers.
  std::uint64_t state = seed ^ 0x6E65745F6C696E6Bull;  // "net_link"
  hash_seed_ = splitmix64(state);
  if (!instant_) {
    // Wheel span: one bucket per tick of the spec's worst-case schedule
    // offset (delay + jitter, plus batch-window rounding), power-of-two
    // sized for mask indexing and capped so a pathological delay cannot
    // allocate an unbounded wheel (the overflow heap absorbs the rest).
    std::uint64_t span = spec_.max_delay() + 2;
    if (spec_.batch_window > 1) span += spec_.batch_window - 1;
    const std::uint64_t size = next_pow2(std::min(span, kMaxWheelSpan));
    wheel_.assign(size, MsgList{});
    wheel_bits_.assign((size + 63) / 64, 0);
    wheel_mask_ = size - 1;
    ready_.assign(n + 1, MsgList{});
  }
}

std::optional<SimTime> Network::schedule_link(std::uint64_t seq,
                                              std::uint32_t link) {
  // One SplitMix64 step over (seed, seq, link) yields independent,
  // drain-order-free randomness for this message instance on this link.
  std::uint64_t state =
      hash_seed_ ^ (seq * 0x9E3779B97F4A7C15ull) ^
      (static_cast<std::uint64_t>(link) + 1) * 0xBF58476D1CE4E5B9ull;
  const std::uint64_t h = splitmix64(state);
  if (spec_.drop_rate > 0.0) {
    // Top 53 bits -> uniform double in [0, 1).
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u < spec_.drop_rate) return std::nullopt;
  }
  SimTime due = now_ + spec_.delay;
  if (spec_.jitter > 0) {
    due += (h & 0xFFFFFFFFull) % (static_cast<std::uint64_t>(spec_.jitter) + 1);
  }
  if (spec_.batch_window > 1) {
    const std::uint64_t w = spec_.batch_window;
    due = (due + w - 1) / w * w;
  }
  return due;
}

std::uint32_t Network::slab_alloc(const Message& m, std::uint32_t recipient) {
  std::uint32_t idx;
  if (free_head_ != kNil) {
    idx = free_head_;
    free_head_ = slab_[idx].next;
  } else {
    idx = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  slab_[idx].msg = m;
  slab_[idx].next = kNil;
  slab_[idx].recipient = recipient;
  return idx;
}

void Network::slab_free(std::uint32_t idx) {
  slab_[idx].next = free_head_;
  free_head_ = idx;
}

void Network::append_ready(std::uint32_t recipient, std::uint32_t idx) {
  if (down_count_ != 0 && recipient < num_nodes() &&
      !alive_->test(static_cast<NodeId>(recipient))) {
    // Delivery-time drop: the recipient is down at the due tick. The send
    // was charged when it happened; the delivery just never lands.
    slab_free(idx);
    --pending_;
    ++dropped_;
    return;
  }
  MsgList& list = ready_[recipient];
  if (list.tail == kNil) {
    list.head = idx;
  } else {
    slab_[list.tail].next = idx;
  }
  list.tail = idx;
  ++ready_count_;
  if (recipient < num_nodes()) due_mail_->set(static_cast<NodeId>(recipient));
}

void Network::schedule_delivery(std::uint32_t recipient, SimTime due,
                                std::uint64_t seq, const Message& m) {
  ++pending_;
  if (due <= now_) {
    append_ready(recipient, slab_alloc(m, recipient));
    return;
  }
  if (due - now_ <= wheel_mask_) {
    const std::uint32_t idx = slab_alloc(m, recipient);
    const auto slot = static_cast<std::size_t>(due & wheel_mask_);
    MsgList& bucket = wheel_[slot];
    // Sends happen in global seq order, so each bucket's list is
    // automatically (due, seq)-sorted by appending.
    if (bucket.tail == kNil) {
      bucket.head = idx;
    } else {
      slab_[bucket.tail].next = idx;
    }
    bucket.tail = idx;
    wheel_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    return;
  }
  overflow_.push_back(Overflow{due, seq, recipient, m});
  std::push_heap(overflow_.begin(), overflow_.end(), LaterDelivery{});
}

SimTime Network::next_wheel_tick() const {
  // Every occupied bucket holds the unique in-span due tick congruent to
  // its slot index, so the first occupied slot in circular order starting
  // at (now_ + 1) is the earliest wheel delivery. Two linear word-wise
  // passes ([start, size) then the wrapped [0, start)) — O(span/64),
  // independent of n and of pending message count.
  const std::uint64_t size = wheel_mask_ + 1;
  const std::uint64_t start = (now_ + 1) & wheel_mask_;
  const auto first_set_in = [&](std::uint64_t from,
                                std::uint64_t to) -> std::uint64_t {
    // First occupied slot in [from, to), or `size` when none. Only the
    // range's first word needs masking; a hit in its last word may belong
    // to the other pass and is rejected by the `< to` check (the word's
    // lowest set bit being >= to implies no set bit below it).
    for (std::uint64_t w = from >> 6; w <= (to - 1) >> 6; ++w) {
      std::uint64_t word = wheel_bits_[w];
      if (w == (from >> 6)) word &= (~std::uint64_t{0}) << (from & 63);
      if (word == 0) continue;
      const std::uint64_t slot =
          w * 64 + static_cast<std::uint64_t>(std::countr_zero(word));
      return slot < to ? slot : size;
    }
    return size;
  };
  std::uint64_t slot = first_set_in(start, size);
  if (slot == size && start != 0) slot = first_set_in(0, start);
  if (slot == size) return kNoTick;
  return now_ + 1 + ((slot - start) & wheel_mask_);
}

void Network::flush_tick(SimTime t) {
  // Overflow entries first: a tick-t overflow message was necessarily
  // sent before any tick-t wheel message (its schedule offset exceeded
  // the wheel span, so its send tick — and hence its seq — is smaller),
  // and heap pops with equal due come out in seq order.
  while (!overflow_.empty() && overflow_.front().due == t) {
    std::pop_heap(overflow_.begin(), overflow_.end(), LaterDelivery{});
    const Overflow& o = overflow_.back();
    append_ready(o.recipient, slab_alloc(o.msg, o.recipient));
    overflow_.pop_back();
  }
  const auto slot = static_cast<std::size_t>(t & wheel_mask_);
  std::uint32_t idx = wheel_[slot].head;
  while (idx != kNil) {
    const std::uint32_t next = slab_[idx].next;
    slab_[idx].next = kNil;
    append_ready(slab_[idx].recipient, idx);
    idx = next;
  }
  wheel_[slot] = MsgList{};
  wheel_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
}

void Network::advance_clock_to(SimTime t) {
  if (instant_ || wheel_.empty()) {
    if (t > now_) now_ = t;
    return;
  }
  while (now_ < t) {
    // Next event tick: min of the wheel's first occupied bucket and the
    // overflow top. Empty tick ranges are skipped in one step.
    SimTime e = next_wheel_tick();
    if (!overflow_.empty()) e = std::min(e, overflow_.front().due);
    if (e > t) {
      now_ = t;
      return;
    }
    now_ = e;
    flush_tick(e);
  }
}

void Network::node_send(NodeId from, Message m) {
  if (from >= num_nodes()) {
    throw std::out_of_range("Network::node_send: bad node id");
  }
  assert(alive_->test(from) && "a down node cannot send");
  m.from = from;
  stats_->record_upstream(m.kind);
  if (tap_) tap_(MsgDirection::kUpstream, m);
  const std::uint64_t seq = seq_++;
  if (instant_) {
    coord_inbox_.push_back(m);
    ++pending_;
    return;
  }
  // The coordinator's "link" id is one past the node range.
  const auto coord_link = static_cast<std::uint32_t>(num_nodes());
  if (const auto due = schedule_link(seq, coord_link)) {
    schedule_delivery(coord_link, *due, seq, m);
  } else {
    ++dropped_;
  }
}

void Network::coord_unicast(NodeId to, Message m) {
  if (to >= num_nodes()) {
    throw std::out_of_range("Network::coord_unicast: bad node id");
  }
  stats_->record_unicast(m.kind);
  if (tap_) tap_(MsgDirection::kUnicast, m);
  const std::uint64_t seq = seq_++;
  if (instant_) {
    if (down_count_ != 0 && !alive_->test(to)) {
      ++dropped_;  // instant delivery to a down node: charged, never lands
      return;
    }
    unicasts_[to].push_back(Stamped{seq, m});
    ++pending_;
    due_mail_->set(to);
    return;
  }
  if (const auto due = schedule_link(seq, to)) {
    schedule_delivery(to, *due, seq, m);
  } else {
    ++dropped_;
  }
}

void Network::coord_broadcast(Message m) {
  stats_->record_broadcast(m.kind);
  if (tap_) tap_(MsgDirection::kBroadcast, m);
  const std::uint64_t seq = seq_++;
  if (instant_) {
    // Shared log + per-node cursors: O(1) regardless of n (the word-wise
    // due-bit fill is n/64). Every node has one pending delivery until it
    // next drains.
    bcast_msgs_.push_back(m);
    bcast_seqs_.push_back(seq);
    pending_ += num_nodes() - down_count_;
    due_mail_->set_all();
    if (down_count_ != 0) {
      // Down nodes never see this entry: their due bits stay clear and
      // set_node_up fast-forwards their cursor past it. The per-link
      // deliveries they miss are dropped here, at delivery time.
      due_mail_->mask_with(*alive_);
      dropped_ += down_count_;
    }
    return;
  }
  // Scheduled mode fans the broadcast out per link so each receiver gets
  // its own (possibly jittered/dropped) delivery tick; the shared log is
  // not kept (nothing reads it there, and it would grow without bound
  // over long delay/drop sweeps).
  ++broadcasts_issued_;
  for (NodeId id = 0; id < num_nodes(); ++id) {
    if (const auto due = schedule_link(seq, id)) {
      schedule_delivery(id, *due, seq, m);
    } else {
      ++dropped_;
    }
  }
}

void Network::coord_session_broadcast(Message m) {
  stats_->record_broadcast(m.kind);
  if (tap_) tap_(MsgDirection::kBroadcast, m);
  const std::uint64_t seq = seq_++;
  const auto listening = listening_->words();
  if (!instant_) {
    // Recipients only; schedule_link depends on (seq, link) alone, so
    // each recipient's tick or drop is the one coord_broadcast gives it.
    ++broadcasts_issued_;
    for_each_set_bit(listening, [&](NodeId id) {
      if (const auto due = schedule_link(seq, id)) {
        schedule_delivery(id, *due, seq, m);
      } else {
        ++dropped_;
      }
    });
    return;
  }
  bcast_msgs_.push_back(m);
  bcast_seqs_.push_back(seq | kScopedTag);
  const std::size_t end = log_offset_ + bcast_msgs_.size();
  const auto alive = alive_->words();
  const auto due = due_mail_->mutable_words();
  for (std::size_t w = 0; w < due.size(); ++w) {
    const std::uint64_t to = listening[w] & alive[w];
    const std::uint64_t was_due = due[w];
    due[w] = was_due | to;
    pending_ += static_cast<std::uint64_t>(std::popcount(to));
    dropped_ += static_cast<std::uint64_t>(
        std::popcount(listening[w] & ~alive[w]));
    // A live non-recipient with nothing unread skips the entry now. One
    // that is due for other mail skips it when it reads, since it is not
    // listening then.
    std::uint64_t idle = alive[w] & ~(was_due | to);
    std::size_t* cursor = cursors_.data() + w * 64;
    if (idle == ~std::uint64_t{0}) {
      std::fill(cursor, cursor + 64, end);
      continue;
    }
    while (idle != 0) {
      cursor[std::countr_zero(idle)] = end;
      idle &= idle - 1;
    }
  }
}

void Network::set_listening(NodeId id, bool listening) {
  if (listening_->test(id) == listening) return;
  if (instant_ && due_mail_->test(id)) {
    // Unread entries were scoped under the old bit: move the deliverable
    // ones into the unicast buffer (both sources are seq-ascending, so a
    // merge keeps send order) and mark the log suffix read.
    std::vector<Stamped>& uni = unicasts_[id];
    std::vector<Stamped> merged;
    const bool skip_scoped = !listening_->test(id);
    std::size_t u = 0;
    for (std::size_t b = cursors_[id] - log_offset_; b < bcast_msgs_.size();
         ++b) {
      if (skip_scoped && scoped_entry(b)) continue;
      const std::uint64_t seq = bcast_seqs_[b] & ~kScopedTag;
      while (u < uni.size() && uni[u].seq < seq) merged.push_back(uni[u++]);
      merged.push_back(Stamped{seq, bcast_msgs_[b]});
    }
    merged.insert(merged.end(), uni.begin() + static_cast<std::ptrdiff_t>(u),
                  uni.end());
    uni.swap(merged);
    cursors_[id] = log_offset_ + bcast_msgs_.size();
  }
  listening_->assign(id, listening);
}

bool Network::coordinator_has_mail() const noexcept {
  if (instant_) return !coord_inbox_.empty();
  return ready_[num_nodes()].head != kNil;
}

void Network::drain_scheduled(std::size_t qi, std::vector<Message>& out,
                              DrainStage* stage) {
  MsgList& list = ready_[qi];
  std::uint32_t idx = list.head;
  while (idx != kNil) {
    out.push_back(slab_[idx].msg);
    const std::uint32_t next = slab_[idx].next;
    if (stage != nullptr) {
      // Staged free: thread the node onto the stage's private chain (the
      // shared free list is owned by the main thread); the chain is
      // spliced back in one O(1) step by commit_drain_stage.
      slab_[idx].next = stage->free_head;
      if (stage->free_head == kNil) stage->free_tail = idx;
      stage->free_head = idx;
    } else {
      slab_free(idx);
    }
    idx = next;
  }
  if (stage != nullptr) {
    stage->delivered += out.size();
    stage->drained += out.size();
  } else {
    pending_ -= out.size();
    ready_count_ -= out.size();
  }
  list = MsgList{};
  if (qi < num_nodes()) due_mail_->clear(static_cast<NodeId>(qi));
}

void Network::drain_coordinator(std::vector<Message>& out) {
  out.clear();
  if (instant_) {
    // Swap the burst out: both the caller's scratch and the inbox keep
    // their capacities, so steady-state protocol rounds allocate nothing
    // on either side.
    std::swap(out, coord_inbox_);
    pending_ -= out.size();
    return;
  }
  drain_scheduled(num_nodes(), out);
}

std::vector<Message> Network::drain_coordinator() {
  std::vector<Message> out;
  if (instant_) {
    // Copy-and-clear (not swap): the returning overload must keep the
    // inbox's send-side capacity, or every call would reset it and the
    // next burst of node_sends would regrow the buffer from scratch.
    out.reserve(coord_inbox_.size());
    out.insert(out.end(), std::make_move_iterator(coord_inbox_.begin()),
               std::make_move_iterator(coord_inbox_.end()));
    pending_ -= coord_inbox_.size();
    coord_inbox_.clear();
    return out;
  }
  drain_scheduled(num_nodes(), out);
  return out;
}

std::size_t Network::merge_instant_mail(NodeId id, std::vector<Message>& out) {
  // Both sources are already seq-ascending (push order), so a two-pointer
  // merge replaces the old collect-then-sort pass and the intermediate
  // vector; the unicast buffer and `out` keep their capacity across
  // drains. The log's parallel layout keeps the comparison loop on the
  // dense seq array.
  // A node that is not listening skips the session-scoped entries.
  std::vector<Stamped>& uni = unicasts_[id];
  const std::size_t bstart = cursors_[id] - log_offset_;
  const std::size_t bend = bcast_msgs_.size();
  const bool skip_scoped = !listening_->test(id);
  const std::size_t before = out.size();
  out.reserve(before + uni.size() + (bend - bstart));
  std::size_t u = 0;
  for (std::size_t b = bstart; b < bend; ++b) {
    if (skip_scoped && scoped_entry(b)) continue;
    const std::uint64_t seq = bcast_seqs_[b] & ~kScopedTag;
    while (u < uni.size() && uni[u].seq < seq) out.push_back(uni[u++].msg);
    out.push_back(bcast_msgs_[b]);
  }
  for (; u < uni.size(); ++u) out.push_back(uni[u].msg);
  const std::size_t delivered = out.size() - before;
  uni.clear();
  cursors_[id] = log_offset_ + bcast_msgs_.size();
  due_mail_->clear(id);
  return delivered;
}

void Network::drain_node(NodeId id, std::vector<Message>& out) {
  if (id >= num_nodes()) {
    throw std::out_of_range("Network::drain_node: bad node id");
  }
  out.clear();
  if (!instant_) {
    drain_scheduled(id, out);  // a down node's deliveries drop at due tick
    return;
  }
  refuse_down_node(id, "drain_node");
  pending_ -= merge_instant_mail(id, out);
  maybe_compact_broadcast_log();
}

void Network::drain_node_staged(NodeId id, std::vector<Message>& out,
                                DrainStage& stage) {
  if (id >= num_nodes()) {
    throw std::out_of_range("Network::drain_node_staged: bad node id");
  }
  out.clear();
  if (!instant_) {
    drain_scheduled(id, out, &stage);
    return;
  }
  stage.delivered += merge_instant_mail(id, out);
  // Deliberately no compaction: other shards hold in-place log suffixes.
}

std::vector<Message> Network::drain_node(NodeId id) {
  std::vector<Message> out;
  drain_node(id, out);
  return out;
}

void Network::throw_node_down(NodeId id, const char* what) {
  throw std::logic_error(std::string("Network::") + what + ": node " +
                         std::to_string(id) + " is down");
}

void Network::set_node_down(NodeId id) {
  if (id >= num_nodes()) {
    throw std::out_of_range("Network::set_node_down: bad node id");
  }
  if (!alive_->test(id)) return;
  alive_->clear(id);
  ++down_count_;
  if (instant_) {
    // Queued-but-undrained mail dies with the node.
    const std::uint64_t queued =
        unicasts_[id].size() + unread_broadcast_deliveries(id);
    pending_ -= queued;
    dropped_ += queued;
    unicasts_[id].clear();
    cursors_[id] = log_offset_ + bcast_msgs_.size();
  } else if (!ready_.empty()) {
    // Purge the delivered-but-undrained ready list; in-flight wheel /
    // overflow entries addressed to the node are dropped lazily at their
    // due tick by append_ready.
    MsgList& list = ready_[id];
    std::uint32_t idx = list.head;
    std::uint64_t purged = 0;
    while (idx != kNil) {
      const std::uint32_t next = slab_[idx].next;
      slab_free(idx);
      idx = next;
      ++purged;
    }
    list = MsgList{};
    pending_ -= purged;
    ready_count_ -= purged;
    dropped_ += purged;
  }
  due_mail_->clear(id);
}

void Network::set_node_up(NodeId id) {
  if (id >= num_nodes()) {
    throw std::out_of_range("Network::set_node_up: bad node id");
  }
  if (alive_->test(id)) return;
  alive_->set(id);
  --down_count_;
  if (instant_) {
    // Skip every broadcast issued during the outage (each was already
    // counted dropped at issue time); delivery resumes with the next send.
    cursors_[id] = log_offset_ + bcast_msgs_.size();
  }
}

std::size_t Network::unread_broadcast_deliveries(NodeId id) const noexcept {
  const std::size_t start = cursors_[id] - log_offset_;
  std::size_t count = bcast_msgs_.size() - start;
  if (!listening_->test(id)) {
    for (std::size_t b = start; b < bcast_msgs_.size(); ++b) {
      if (scoped_entry(b)) --count;
    }
  }
  return count;
}

void Network::maybe_compact_broadcast_log() {
  if (bcast_msgs_.size() < kLogCompactThreshold) return;
  std::size_t min_cursor = log_offset_ + bcast_msgs_.size();
  if (down_count_ == 0) {
    for (const std::size_t c : cursors_) min_cursor = std::min(min_cursor, c);
  } else {
    // A down node's cursor is parked at its crash point and fast-forwarded
    // on recovery; it must not pin the log prefix for the whole outage.
    for (NodeId id = 0; id < num_nodes(); ++id) {
      if (alive_->test(id)) min_cursor = std::min(min_cursor, cursors_[id]);
    }
  }
  const std::size_t read_prefix = min_cursor - log_offset_;
  // Only pay the erase when it reclaims at least half the retained log;
  // a straggler node that never drains simply defers compaction.
  if (read_prefix < bcast_msgs_.size() / 2) return;
  const auto cut = static_cast<std::ptrdiff_t>(read_prefix);
  bcast_msgs_.erase(bcast_msgs_.begin(), bcast_msgs_.begin() + cut);
  bcast_seqs_.erase(bcast_seqs_.begin(), bcast_seqs_.begin() + cut);
  log_offset_ += read_prefix;
}

std::optional<SimTime> Network::earliest_pending() const {
  if (pending_ == 0) return std::nullopt;
  if (instant_ || ready_count_ > 0) return now_;  // deliverable right away
  SimTime e = next_wheel_tick();
  if (!overflow_.empty()) e = std::min(e, overflow_.front().due);
  return e;
}

}  // namespace topkmon
