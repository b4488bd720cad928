// Unit tests for the star network with broadcast channel.
#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace topkmon {
namespace {

Message mk(MsgKind kind, std::int64_t a = 0, std::int64_t b = 0) {
  Message m;
  m.kind = kind;
  m.a = a;
  m.b = b;
  return m;
}

TEST(Network, RequiresStatsSink) {
  EXPECT_THROW(Network(4, nullptr), std::invalid_argument);
}

TEST(Network, NodeSendReachesCoordinator) {
  CommStats stats;
  Network net(4, &stats);
  net.node_send(2, mk(MsgKind::kValueReport, 99));
  ASSERT_TRUE(net.coordinator_has_mail());
  const auto inbox = net.drain_coordinator();
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].from, 2u);
  EXPECT_EQ(inbox[0].a, 99);
  EXPECT_FALSE(net.coordinator_has_mail());
  EXPECT_EQ(stats.upstream(), 1u);
}

TEST(Network, NodeSendStampsSender) {
  CommStats stats;
  Network net(4, &stats);
  Message m = mk(MsgKind::kValueReport, 1);
  m.from = 99;  // sender field must be overwritten with the true sender
  net.node_send(3, m);
  EXPECT_EQ(net.drain_coordinator()[0].from, 3u);
}

TEST(Network, RejectsBadIds) {
  CommStats stats;
  Network net(4, &stats);
  EXPECT_THROW(net.node_send(4, mk(MsgKind::kValueReport)), std::out_of_range);
  EXPECT_THROW(net.coord_unicast(7, mk(MsgKind::kProbe)), std::out_of_range);
  EXPECT_THROW(net.drain_node(100), std::out_of_range);
}

TEST(Network, UnicastReachesOnlyTarget) {
  CommStats stats;
  Network net(3, &stats);
  net.coord_unicast(1, mk(MsgKind::kProbe, 5));
  EXPECT_TRUE(net.drain_node(0).empty());
  const auto inbox = net.drain_node(1);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].a, 5);
  EXPECT_TRUE(net.drain_node(2).empty());
  EXPECT_EQ(stats.unicast(), 1u);
}

TEST(Network, BroadcastReachesEveryNodeOnce) {
  CommStats stats;
  Network net(3, &stats);
  net.coord_broadcast(mk(MsgKind::kRoundBeacon, 7));
  for (NodeId id = 0; id < 3; ++id) {
    const auto inbox = net.drain_node(id);
    ASSERT_EQ(inbox.size(), 1u) << "node " << id;
    EXPECT_EQ(inbox[0].a, 7);
  }
  // Draining again delivers nothing (cursor advanced).
  for (NodeId id = 0; id < 3; ++id) EXPECT_TRUE(net.drain_node(id).empty());
  EXPECT_EQ(stats.broadcast(), 1u);  // one message regardless of n
}

TEST(Network, BroadcastCostIndependentOfN) {
  CommStats stats;
  Network net(1'000, &stats);
  net.coord_broadcast(mk(MsgKind::kRoundBeacon));
  net.coord_broadcast(mk(MsgKind::kRoundBeacon));
  EXPECT_EQ(stats.total(), 2u);
}

TEST(Network, LateJoinerSeesAllBroadcastsSinceLastDrain) {
  CommStats stats;
  Network net(2, &stats);
  net.coord_broadcast(mk(MsgKind::kRoundBeacon, 1));
  net.coord_broadcast(mk(MsgKind::kRoundBeacon, 2));
  const auto inbox = net.drain_node(0);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(inbox[0].a, 1);
  EXPECT_EQ(inbox[1].a, 2);
}

TEST(Network, UnicastAndBroadcastInterleaveBySendOrder) {
  CommStats stats;
  Network net(2, &stats);
  net.coord_unicast(0, mk(MsgKind::kProbe, 1));
  net.coord_broadcast(mk(MsgKind::kRoundBeacon, 2));
  net.coord_unicast(0, mk(MsgKind::kFilterAssign, 3));
  const auto inbox = net.drain_node(0);
  ASSERT_EQ(inbox.size(), 3u);
  EXPECT_EQ(inbox[0].a, 1);
  EXPECT_EQ(inbox[1].a, 2);
  EXPECT_EQ(inbox[2].a, 3);
}

TEST(Network, CoordinatorInboxPreservesArrivalOrder) {
  CommStats stats;
  Network net(3, &stats);
  net.node_send(2, mk(MsgKind::kValueReport, 20));
  net.node_send(0, mk(MsgKind::kValueReport, 0));
  net.node_send(1, mk(MsgKind::kValueReport, 10));
  const auto inbox = net.drain_coordinator();
  ASSERT_EQ(inbox.size(), 3u);
  EXPECT_EQ(inbox[0].from, 2u);
  EXPECT_EQ(inbox[1].from, 0u);
  EXPECT_EQ(inbox[2].from, 1u);
}

TEST(Network, DownNodesAreNeverDrainedAndPendingStaysExact) {
  // Instant policy: a down node's share of every broadcast counts as
  // dropped at issue, never as pending, and it cannot be drained (its
  // cursor still points at the outage's broadcasts). Draining every live
  // node must bring pending_deliveries() to exactly zero.
  CommStats stats;
  Network net(6, &stats);
  net.set_node_down(1);
  net.set_node_down(4);
  net.coord_broadcast(mk(MsgKind::kRoundBeacon, 1));
  net.coord_unicast(2, mk(MsgKind::kProbe, 2));
  net.coord_unicast(4, mk(MsgKind::kProbe, 3));  // down: dropped at send
  net.coord_broadcast(mk(MsgKind::kRoundBeacon, 4));
  EXPECT_EQ(net.pending_deliveries(), 4u * 2u + 1u);
  EXPECT_EQ(net.dropped_deliveries(), 2u * 2u + 1u);

  std::vector<Message> out;
  EXPECT_THROW(net.drain_node(1, out), std::logic_error);
  EXPECT_THROW(net.deliver_broadcasts(4, [](const Message&) {}),
               std::logic_error);
  EXPECT_EQ(net.pending_deliveries(), 9u);  // a refused drain moves nothing

  std::size_t delivered = 0;
  for (NodeId id = 0; id < 6; ++id) {
    if (!net.node_alive(id)) continue;
    if (net.node_mail_is_broadcast_only(id)) {
      net.deliver_broadcasts(id, [&](const Message&) { ++delivered; });
    } else {
      net.drain_node(id, out);
      delivered += out.size();
    }
  }
  EXPECT_EQ(delivered, 9u);
  EXPECT_EQ(net.pending_deliveries(), 0u);

  // After recovery the node reads only what was issued since.
  net.set_node_up(1);
  net.coord_broadcast(mk(MsgKind::kRoundBeacon, 5));
  EXPECT_EQ(net.pending_deliveries(), 5u);
  ASSERT_EQ(net.drain_node(1).size(), 1u);
  EXPECT_EQ(net.pending_deliveries(), 4u);
}

TEST(Network, BroadcastLogAccessible) {
  CommStats stats;
  Network net(1, &stats);
  net.coord_broadcast(mk(MsgKind::kRoundBeacon, 11));
  net.coord_broadcast(mk(MsgKind::kFilterUpdate, 22));
  EXPECT_EQ(net.broadcast_log_size(), 2u);
  const auto log = net.broadcast_log();
  EXPECT_EQ(log[0].a, 11);
  EXPECT_EQ(log[1].a, 22);
}

}  // namespace
}  // namespace topkmon
