// Session-scoped broadcasts (Network::coord_session_broadcast, reached
// through CoordCtx::session_broadcast): charged and tapped like a plain
// broadcast, but delivered only to the nodes whose NodeRuntime::listening
// bit is set when it is issued. These tests pin the transport contract —
// who becomes due, what each node reads and in which order, exact
// pending/dropped accounting with down nodes, per-link schedules equal to
// the unscoped fan-out's, staged drains equal to unstaged ones — and the
// driver-level one: a node that never touches its bit receives
// everything, and a session deployment that scopes its beacons reads
// byte-identical mail across --workers.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/driver.hpp"
#include "core/role_session.hpp"
#include "sim/cluster.hpp"
#include "sim/network.hpp"
#include "sim/network_model.hpp"
#include "sim/node_runtime.hpp"

namespace topkmon {
namespace {

Message msg(MsgKind kind, std::int64_t a) {
  Message m;
  m.kind = kind;
  m.a = a;
  return m;
}

std::vector<std::int64_t> payloads(const std::vector<Message>& mail) {
  std::vector<std::int64_t> out;
  for (const Message& m : mail) out.push_back(m.a);
  return out;
}

/// Reads node `id`'s mail the way the SimDriver does: in place when it is
/// broadcast-only, through drain_node otherwise.
std::vector<Message> read_mail(Network& net, NodeId id) {
  if (!net.node_mail_is_broadcast_only(id)) return net.drain_node(id);
  std::vector<Message> out;
  net.deliver_broadcasts(id, [&](const Message& m) { out.push_back(m); });
  return out;
}

std::size_t popcount(std::span<const std::uint64_t> words) {
  std::size_t c = 0;
  for (const std::uint64_t w : words) c += std::popcount(w);
  return c;
}

TEST(ScopedBroadcast, OnlyListeningLiveNodesBecomeDue) {
  constexpr std::size_t kN = 150;  // three bit words, the last partial
  NodeRuntime rt(kN);
  CommStats stats;
  Network net(kN, &stats, NetworkSpec{}, 0, &rt);
  int taps = 0;
  net.set_tap([&](MsgDirection dir, const Message&) {
    EXPECT_EQ(dir, MsgDirection::kBroadcast);
    ++taps;
  });
  for (NodeId id = 0; id < kN; ++id) {
    if (id % 3 == 0) rt.listening.clear(id);
  }
  net.set_node_down(7);    // listening, down
  net.set_node_down(9);    // not listening, down
  net.set_node_down(140);  // listening, down, last word

  net.coord_session_broadcast(msg(MsgKind::kRoundBeacon, 5));
  EXPECT_EQ(stats.broadcast(), 1u);  // charged exactly once
  EXPECT_EQ(taps, 1);
  std::size_t due = 0;
  for (NodeId id = 0; id < kN; ++id) {
    const bool recipient = rt.listening.test(id) && rt.alive.test(id);
    EXPECT_EQ(net.node_has_mail(id), recipient) << "node " << id;
    due += recipient ? 1 : 0;
  }
  EXPECT_EQ(popcount(rt.due_mail.words()), due);
  EXPECT_EQ(net.pending_deliveries(), due);
  // The two down listening nodes are addressed but cannot take delivery.
  EXPECT_EQ(net.dropped_deliveries(), 2u);

  // Each live recipient reads the beacon exactly once; no other live node
  // reads it (down nodes are never serviced).
  for (NodeId id = 0; id < kN; ++id) {
    if (!net.node_alive(id)) continue;
    const std::size_t want = rt.listening.test(id) ? 1 : 0;
    EXPECT_EQ(read_mail(net, id).size(), want) << "node " << id;
  }
  EXPECT_EQ(net.pending_deliveries(), 0u);
}

TEST(ScopedBroadcast, MixedTrafficArrivesInSeqOrder) {
  // Node 0 listens, node 1 does not; both have unicasts interleaved with
  // scoped and plain broadcasts. The listener reads everything in send
  // order; the other node reads the same stream minus the scoped entries.
  NodeRuntime rt(3);
  CommStats stats;
  Network net(3, &stats, NetworkSpec{}, 0, &rt);
  rt.listening.clear(1);
  rt.listening.clear(2);
  net.coord_session_broadcast(msg(MsgKind::kRoundBeacon, 1));
  net.coord_unicast(0, msg(MsgKind::kProbe, 2));
  net.coord_unicast(1, msg(MsgKind::kProbe, 3));
  net.coord_broadcast(msg(MsgKind::kFilterUpdate, 4));
  net.coord_session_broadcast(msg(MsgKind::kRoundBeacon, 5));
  net.coord_unicast(0, msg(MsgKind::kProbe, 6));
  net.coord_unicast(1, msg(MsgKind::kProbe, 7));
  net.coord_session_broadcast(msg(MsgKind::kRoundBeacon, 8));
  net.coord_broadcast(msg(MsgKind::kWinnerAnnounce, 9));

  EXPECT_EQ(payloads(read_mail(net, 0)),
            (std::vector<std::int64_t>{1, 2, 4, 5, 6, 8, 9}));
  EXPECT_EQ(payloads(read_mail(net, 1)),
            (std::vector<std::int64_t>{3, 4, 7, 9}));
  // Node 2 had nothing unread when the first beacon went out, so it skips
  // every scoped entry and reads the plain broadcasts in place.
  ASSERT_TRUE(net.node_mail_is_broadcast_only(2));
  EXPECT_EQ(payloads(read_mail(net, 2)), (std::vector<std::int64_t>{4, 9}));
  EXPECT_EQ(net.pending_deliveries(), 0u);
}

TEST(ScopedBroadcast, ListeningChangeKeepsIssueTimeScope) {
  // A bit flipped while the node still has unread mail (possible only
  // outside its own read, e.g. from on_observe under a tick budget) must
  // not re-scope entries already issued.
  NodeRuntime rt(2);
  CommStats stats;
  Network net(2, &stats, NetworkSpec{}, 0, &rt);
  net.set_listening(1, false);
  net.coord_broadcast(msg(MsgKind::kFilterUpdate, 1));
  net.coord_session_broadcast(msg(MsgKind::kRoundBeacon, 2));  // not for 1
  net.set_listening(1, true);
  net.set_listening(0, false);
  net.coord_session_broadcast(msg(MsgKind::kRoundBeacon, 3));  // not for 0
  EXPECT_EQ(net.pending_deliveries(), 2u + 2u);
  EXPECT_EQ(payloads(read_mail(net, 0)), (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(payloads(read_mail(net, 1)), (std::vector<std::int64_t>{1, 3}));
  EXPECT_EQ(net.pending_deliveries(), 0u);

  // An idle non-listener that starts listening later never reads the
  // scoped entries issued before: its cursor moved past them at issue.
  net.coord_session_broadcast(msg(MsgKind::kRoundBeacon, 4));  // not for 0
  EXPECT_FALSE(net.node_has_mail(0));
  net.set_listening(0, true);
  net.coord_broadcast(msg(MsgKind::kFilterUpdate, 5));
  EXPECT_EQ(payloads(read_mail(net, 0)), (std::vector<std::int64_t>{5}));
  EXPECT_EQ(payloads(read_mail(net, 1)), (std::vector<std::int64_t>{4, 5}));
  EXPECT_EQ(net.pending_deliveries(), 0u);
}

TEST(ScopedBroadcast, PendingAndDroppedExactWithDownNodes) {
  constexpr std::size_t kN = 70;
  NodeRuntime rt(kN);
  CommStats stats;
  Network net(kN, &stats, NetworkSpec{}, 0, &rt);
  for (NodeId id = 0; id < kN; id += 2) rt.listening.clear(id);
  net.set_node_down(1);   // listening
  net.set_node_down(2);   // not listening
  net.set_node_down(69);  // listening, second word

  // 33 recipients: the 35 odd (listening) ids minus the two down ones.
  net.coord_session_broadcast(msg(MsgKind::kRoundBeacon, 1));
  EXPECT_EQ(net.pending_deliveries(), 33u);
  EXPECT_EQ(net.dropped_deliveries(), 2u);
  // A plain broadcast reaches the 67 live nodes; the 3 down ones drop.
  net.coord_broadcast(msg(MsgKind::kFilterUpdate, 2));
  EXPECT_EQ(net.pending_deliveries(), 33u + 67u);
  EXPECT_EQ(net.dropped_deliveries(), 2u + 3u);

  // Crashing a node with unread mail drops exactly what it would have
  // read: two entries for a listener, one for a non-listener.
  net.set_node_down(3);
  EXPECT_EQ(net.dropped_deliveries(), 5u + 2u);
  net.set_node_down(4);
  EXPECT_EQ(net.dropped_deliveries(), 7u + 1u);
  EXPECT_EQ(net.pending_deliveries(), 100u - 3u);

  std::size_t read = 0;
  for (NodeId id = 0; id < kN; ++id) {
    if (net.node_alive(id)) read += read_mail(net, id).size();
  }
  EXPECT_EQ(read, 97u);
  EXPECT_EQ(net.pending_deliveries(), 0u);

  // A recovered node resumes with the next send, scoped or not.
  net.set_node_up(1);
  net.coord_session_broadcast(msg(MsgKind::kRoundBeacon, 3));
  EXPECT_EQ(payloads(read_mail(net, 1)), (std::vector<std::int64_t>{3}));
}

TEST(ScopedBroadcast, ScheduledRecipientKeepsUnscopedSchedule) {
  // Same spec, seed and send sequence; one network sends plain
  // broadcasts, the other scoped ones with every third node not
  // listening. Each listening node must see the same messages at the
  // same ticks (so the same drops), the others nothing at all.
  NetworkSpec spec;
  spec.delay = 1;
  spec.jitter = 4;
  spec.drop_rate = 0.2;
  constexpr std::size_t kN = 40;
  NodeRuntime rt_plain(kN);
  NodeRuntime rt_scoped(kN);
  CommStats stats_plain;
  CommStats stats_scoped;
  Network plain(kN, &stats_plain, spec, 99, &rt_plain);
  Network scoped(kN, &stats_scoped, spec, 99, &rt_scoped);
  for (NodeId id = 0; id < kN; id += 3) rt_scoped.listening.clear(id);
  plain.set_node_down(5);  // listening, down: dropped at its due tick
  scoped.set_node_down(5);

  for (int i = 0; i < 30; ++i) {
    plain.coord_broadcast(msg(MsgKind::kRoundBeacon, i));
    scoped.coord_session_broadcast(msg(MsgKind::kRoundBeacon, i));
    if (i % 4 == 0) {
      plain.coord_unicast(3, msg(MsgKind::kProbe, 1000 + i));
      scoped.coord_unicast(3, msg(MsgKind::kProbe, 1000 + i));
    }
    if (i == 12) {
      plain.set_node_up(5);
      scoped.set_node_up(5);
    }
    plain.advance_clock();
    scoped.advance_clock();
    for (NodeId id = 0; id < kN; ++id) {
      const auto want = plain.drain_node(id);
      const auto got = scoped.drain_node(id);
      if (rt_scoped.listening.test(id)) {
        EXPECT_EQ(payloads(got), payloads(want)) << "node " << id;
      } else {
        // Non-listeners get only their unicasts.
        for (const Message& m : got) EXPECT_EQ(m.kind, MsgKind::kProbe);
      }
    }
  }
  EXPECT_EQ(stats_plain.broadcast(), stats_scoped.broadcast());
  EXPECT_GT(scoped.dropped_deliveries(), 0u);
  EXPECT_LT(scoped.dropped_deliveries(), plain.dropped_deliveries());
}

TEST(ScopedBroadcast, StagedDrainsMatchUnstaged) {
  constexpr std::size_t kN = 130;
  NodeRuntime rt_a(kN);
  NodeRuntime rt_b(kN);
  CommStats stats_a;
  CommStats stats_b;
  Network serial(kN, &stats_a, NetworkSpec{}, 0, &rt_a);
  Network staged(kN, &stats_b, NetworkSpec{}, 0, &rt_b);
  for (int round = 0; round < 8; ++round) {
    for (NodeId id = 0; id < kN; ++id) {
      const bool listening = (id + static_cast<NodeId>(round)) % 4 != 0;
      serial.set_listening(id, listening);
      staged.set_listening(id, listening);
    }
    for (Network* net : {&serial, &staged}) {
      net->coord_session_broadcast(msg(MsgKind::kRoundBeacon, round * 10));
      net->coord_unicast(static_cast<NodeId>(round * 7 % kN),
                         msg(MsgKind::kProbe, round * 10 + 1));
      net->coord_broadcast(msg(MsgKind::kFilterUpdate, round * 10 + 2));
      net->coord_session_broadcast(
          msg(MsgKind::kRoundBeacon, round * 10 + 3));
    }
    Network::DrainStage stage;
    std::vector<Message> mail;
    for (NodeId id = 0; id < kN; ++id) {
      const auto want = read_mail(serial, id);
      std::vector<Message> got;
      if (staged.node_mail_is_broadcast_only(id)) {
        staged.deliver_broadcasts_staged(
            id, stage, [&](const Message& m) { got.push_back(m); });
      } else {
        staged.drain_node_staged(id, mail, stage);
        got = mail;
      }
      EXPECT_EQ(payloads(got), payloads(want))
          << "round " << round << " node " << id;
    }
    staged.commit_drain_stage(stage);
    staged.compact_broadcast_log();
    EXPECT_EQ(staged.pending_deliveries(), serial.pending_deliveries());
    EXPECT_EQ(staged.pending_deliveries(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Driver level: a repeated-extremum selection whose session nodes listen
// only while active (NodeProtoSession), next to observer nodes that
// never touch the flag.
// ---------------------------------------------------------------------------

constexpr std::int64_t kStartSession = 1;

class RecordingNode final : public NodeAlgo {
 public:
  explicit RecordingNode(bool observer) : observer_(observer) {}
  void on_init(NodeCtx& ctx, Value) override {
    ctx.set_needs_observe(false);
    if (!observer_) sess_.reset(ctx);
  }
  void on_message(NodeCtx& ctx, const Message& m) override {
    seen_.push_back(m.a);
    if (observer_) return;
    if (m.kind == MsgKind::kRoundBeacon) sess_.handle_beacon(m);
    if (m.kind == MsgKind::kWinnerAnnounce &&
        unpack_beacon_b(m.b).holder == ctx.id()) {
      excluded_ = true;
    }
  }
  void on_control(NodeCtx& ctx, const Control& c) override {
    if (observer_) return;
    if (excluded_) {
      sess_.skip(ctx);
    } else {
      sess_.join(ctx, unpack_session_start(c));
    }
  }
  void on_timer(NodeCtx& ctx) override { sess_.run_round(ctx, ctx.value()); }
  const std::vector<std::int64_t>& seen() const { return seen_; }

 private:
  bool observer_;
  bool excluded_ = false;
  NodeProtoSession sess_;
  std::vector<std::int64_t> seen_;
};

/// Selects `want` maxima one session at a time; beacons are session
/// broadcasts (CoordProtoSession::advance).
class SelectCoordinator final : public CoordinatorAlgo {
 public:
  explicit SelectCoordinator(std::size_t want) : want_(want) {}
  std::string_view name() const override { return "select"; }
  void on_init(CoordCtx& ctx) override { start(ctx); }
  void on_message(CoordCtx&, const Message& m) override {
    if (m.kind == MsgKind::kValueReport) sess_.fold(m);
  }
  void on_timer(CoordCtx& ctx) override {
    if (!sess_.active || !sess_.advance(ctx)) return;
    sess_.announce(ctx);
    winners_.push_back(sess_.best_holder);
    if (winners_.size() < want_) start(ctx);
  }
  const std::vector<NodeId>& topk() const override { return winners_; }

 private:
  void start(CoordCtx& ctx) {
    sess_.begin(ctx, kStartSession, Direction::kMax, /*group=*/0, ctx.n());
  }
  std::size_t want_;
  CoordProtoSession sess_;
  std::vector<NodeId> winners_;
};

bool is_observer(std::size_t id) { return id % 10 == 0; }

struct SelectRun {
  std::vector<NodeId> winners;
  CommStats comm;
  std::vector<std::vector<std::int64_t>> seen;  ///< per node, in order
};

SelectRun run_select(std::size_t n, std::size_t workers) {
  std::vector<Value> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = static_cast<Value>((i * 7919) % 1000);
  }
  Cluster cluster(values, 17);
  std::vector<std::unique_ptr<NodeAlgo>> nodes;
  std::vector<const RecordingNode*> views;
  for (std::size_t i = 0; i < n; ++i) {
    auto node = std::make_unique<RecordingNode>(is_observer(i));
    views.push_back(node.get());
    nodes.push_back(std::move(node));
  }
  SelectCoordinator coord(4);
  SimDriver driver(cluster, coord, nodes, /*native=*/true, workers);
  driver.initialize();
  SelectRun run{coord.topk(), cluster.stats(), {}};
  for (const RecordingNode* v : views) run.seen.push_back(v->seen());
  return run;
}

TEST(ScopedBroadcast, NodeThatNeverClearsListeningGetsEverything) {
  const SelectRun run = run_select(70, 1);
  ASSERT_EQ(run.winners.size(), 4u);
  // Observers read every broadcast — the session beacons included — in
  // issue order; session nodes read strictly fewer.
  const std::uint64_t broadcasts = run.comm.broadcast();
  ASSERT_GT(broadcasts, 4u);  // more than the four winner announces
  const std::vector<std::int64_t>& all = run.seen[0];
  for (std::size_t id = 0; id < run.seen.size(); ++id) {
    if (is_observer(id)) {
      EXPECT_EQ(run.seen[id].size(), broadcasts) << "node " << id;
      EXPECT_EQ(run.seen[id], all) << "node " << id;
    } else {
      EXPECT_LT(run.seen[id].size(), broadcasts) << "node " << id;
    }
  }
}

TEST(ScopedBroadcast, StagedDriverRunsMatchSerial) {
  // 300 nodes = 5 bit words: W = 2, 3 and 8 cover uneven and empty
  // shards. Every node must read the same messages in the same order.
  const SelectRun serial = run_select(300, 1);
  for (const std::size_t workers : {2u, 3u, 8u}) {
    const SelectRun parallel = run_select(300, workers);
    EXPECT_EQ(parallel.winners, serial.winners) << "workers " << workers;
    EXPECT_EQ(parallel.comm.total(), serial.comm.total());
    EXPECT_EQ(parallel.seen, serial.seen) << "workers " << workers;
  }
}

// ---------------------------------------------------------------------------
// Scoping is invisible to the protocol: the same session deployment run
// once with NodeProtoSession's listening flag and once with every node
// forced to listen sends the same messages and picks the same winners.
// The session is convened from on_message with a report already folded
// in, so its first beacon goes out in the tick it convened — before any
// node joined — and under a delayed policy lands after they did.
// ---------------------------------------------------------------------------

class SessionNode final : public NodeAlgo {
 public:
  explicit SessionNode(bool always_listen) : always_listen_(always_listen) {}
  void on_init(NodeCtx& ctx, Value) override {
    ctx.set_needs_observe(false);
    sess_.reset(ctx);
    relisten(ctx);
  }
  void on_message(NodeCtx& ctx, const Message& m) override {
    if (m.kind == MsgKind::kRoundBeacon) sess_.handle_beacon(m);
    if (m.kind == MsgKind::kProbe) {
      Message reply;
      reply.kind = MsgKind::kValueReport;
      reply.a = ctx.value();
      reply.b = 1;
      ctx.send(reply);
    }
    relisten(ctx);
  }
  void on_control(NodeCtx& ctx, const Control& c) override {
    sess_.join(ctx, unpack_session_start(c));
    relisten(ctx);
  }
  void on_timer(NodeCtx& ctx) override {
    sess_.run_round(ctx, ctx.value());
    relisten(ctx);
  }

 private:
  void relisten(NodeCtx& ctx) {
    if (always_listen_) ctx.set_listening(true);
  }
  bool always_listen_;
  NodeProtoSession sess_;
};

/// Probes node 0 at init; its reply convenes a session (from on_message)
/// with the reply folded in as the running extremum; two more sessions
/// follow from on_timer.
class TriggeredCoordinator final : public CoordinatorAlgo {
 public:
  std::string_view name() const override { return "triggered"; }
  void on_init(CoordCtx& ctx) override {
    Message probe;
    probe.kind = MsgKind::kProbe;
    ctx.unicast(0, probe);
  }
  void on_message(CoordCtx& ctx, const Message& m) override {
    if (m.kind != MsgKind::kValueReport) return;
    if (m.b == 1) start(ctx);
    sess_.fold(m);
  }
  void on_timer(CoordCtx& ctx) override {
    if (!sess_.active || !sess_.advance(ctx)) return;
    winners_.push_back(sess_.have_best ? sess_.best_holder : kNoHolder);
    if (winners_.size() < 3) start(ctx);
  }
  const std::vector<NodeId>& topk() const override { return winners_; }

 private:
  void start(CoordCtx& ctx) {
    sess_.begin(ctx, kStartSession, Direction::kMax, /*group=*/0, ctx.n());
  }
  CoordProtoSession sess_;
  std::vector<NodeId> winners_;
};

struct SessionRun {
  std::vector<NodeId> winners;
  CommStats comm;
};

SessionRun run_sessions(const NetworkSpec& spec, bool always_listen) {
  constexpr std::size_t kN = 96;
  Cluster cluster(kN, 23, spec);
  // Node 0 holds a middling value, so the first beacon deactivates about
  // half of the nodes once they joined.
  for (NodeId id = 0; id < kN; ++id) {
    cluster.set_value(id, id == 0 ? 500 : static_cast<Value>(id * 37 % 1000));
  }
  std::vector<std::unique_ptr<NodeAlgo>> nodes;
  for (std::size_t i = 0; i < kN; ++i) {
    nodes.push_back(std::make_unique<SessionNode>(always_listen));
  }
  TriggeredCoordinator coord;
  SimDriver driver(cluster, coord, nodes, /*native=*/true);
  driver.initialize();
  return {coord.topk(), cluster.stats()};
}

TEST(ScopedBroadcast, ScopingIsInvisibleToTheProtocol) {
  for (const char* net : {"instant", "delay=2", "delay=1,jitter=3",
                          "delay=2,jitter=2,drop=0.1"}) {
    SCOPED_TRACE(net);
    const NetworkSpec spec = parse_network_spec(net);
    const SessionRun scoped = run_sessions(spec, /*always_listen=*/false);
    const SessionRun all = run_sessions(spec, /*always_listen=*/true);
    ASSERT_EQ(scoped.winners.size(), 3u);
    EXPECT_EQ(scoped.winners, all.winners);
    for (std::size_t k = 0; k < kNumMsgKinds; ++k) {
      const auto kind = static_cast<MsgKind>(k);
      EXPECT_EQ(scoped.comm.by_kind(kind), all.comm.by_kind(kind))
          << msg_kind_name(kind);
    }
  }
}

}  // namespace
}  // namespace topkmon
