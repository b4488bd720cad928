// Repeated-extremum selection on the native session machinery
// (core/role_session.hpp) — the FILTERRESET work-horse the filter,
// ordered, multi-k and recompute ports run as event-driven sessions. A
// small selection deployment built from NodeProtoSession and
// CoordProtoSession (candidate subset, direction, m winners, optional
// beacon suppression) drives the sessions under the SimDriver, and the
// tests pin what every port relies on: winners best-first, the smaller
// id winning ties, one kWinnerAnnounce per winner, and a cost linear in m.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/driver.hpp"
#include "core/role_session.hpp"
#include "sim/cluster.hpp"

namespace topkmon {
namespace {

constexpr std::int64_t kStartSession = 1;

class SelectNode final : public NodeAlgo {
 public:
  explicit SelectNode(bool candidate) : candidate_(candidate) {}
  void on_init(NodeCtx& ctx, Value) override { ctx.set_needs_observe(false); }
  void on_message(NodeCtx& ctx, const Message& m) override {
    if (m.kind == MsgKind::kRoundBeacon) sess_.handle_beacon(m);
    if (m.kind == MsgKind::kWinnerAnnounce &&
        unpack_beacon_b(m.b).holder == ctx.id()) {
      excluded_ = true;
    }
  }
  void on_control(NodeCtx& ctx, const Control& c) override {
    if (candidate_ && !excluded_) {
      sess_.join(ctx, unpack_session_start(c));
    } else {
      sess_.skip();
    }
  }
  void on_timer(NodeCtx& ctx) override { sess_.run_round(ctx, ctx.value()); }

 private:
  bool candidate_;
  bool excluded_ = false;
  NodeProtoSession sess_;
};

struct Winner {
  NodeId id;
  Value value;
};

class SelectCoordinator final : public CoordinatorAlgo {
 public:
  SelectCoordinator(std::size_t m, std::size_t candidates, Direction dir,
                    std::uint64_t n_upper, bool suppress)
      : want_(std::min(m, candidates)), dir_(dir), n_upper_(n_upper) {
    sess_.suppress_idle = suppress;
  }
  std::string_view name() const override { return "select"; }
  void on_init(CoordCtx& ctx) override {
    if (want_ > 0) start(ctx);
  }
  void on_message(CoordCtx&, const Message& m) override {
    if (m.kind == MsgKind::kValueReport) sess_.fold(m);
  }
  void on_timer(CoordCtx& ctx) override {
    if (!sess_.active || !sess_.advance(ctx)) return;
    sess_.announce(ctx);
    ASSERT_TRUE(sess_.have_best);
    winners_.push_back({sess_.best_holder, sess_.best_value});
    if (winners_.size() < want_) start(ctx);
  }
  /// Unused (the tests read winners()); required by CoordinatorAlgo.
  const std::vector<NodeId>& topk() const override { return ids_; }
  const std::vector<Winner>& winners() const { return winners_; }

 private:
  void start(CoordCtx& ctx) {
    sess_.begin(ctx, kStartSession, dir_, /*group=*/0, n_upper_);
  }

  std::size_t want_;
  Direction dir_;
  std::uint64_t n_upper_;
  CoordProtoSession sess_;
  std::vector<Winner> winners_;
  std::vector<NodeId> ids_;
};

struct Selection {
  std::vector<Winner> winners;
  CommStats comm;
};

/// Selects the m extremal nodes among `candidates`, best first, with
/// session bound `n_upper` (Algorithm 2's N).
Selection select(const std::vector<Value>& values,
                 const std::vector<NodeId>& candidates, std::size_t m,
                 std::uint64_t n_upper, std::uint64_t seed,
                 Direction dir = Direction::kMax, bool suppress = false) {
  Cluster cluster(values, seed);
  std::vector<std::unique_ptr<NodeAlgo>> nodes;
  for (NodeId id = 0; id < values.size(); ++id) {
    const bool candidate = std::find(candidates.begin(), candidates.end(),
                                     id) != candidates.end();
    nodes.push_back(std::make_unique<SelectNode>(candidate));
  }
  SelectCoordinator coord(m, candidates.size(), dir, n_upper, suppress);
  SimDriver driver(cluster, coord, nodes, /*native=*/true);
  driver.initialize();
  return {coord.winners(), cluster.stats()};
}

std::vector<NodeId> all_ids(const std::vector<Value>& values) {
  std::vector<NodeId> ids(values.size());
  for (NodeId id = 0; id < values.size(); ++id) ids[id] = id;
  return ids;
}

TEST(SelectExtreme, EmptyCandidates) {
  const auto r = select({1, 2}, {}, 2, 2, 1);
  EXPECT_TRUE(r.winners.empty());
  EXPECT_EQ(r.comm.total(), 0u);
}

TEST(SelectExtreme, ZeroM) {
  const std::vector<Value> values{1, 2};
  const auto r = select(values, all_ids(values), 0, 2, 1);
  EXPECT_TRUE(r.winners.empty());
  EXPECT_EQ(r.comm.total(), 0u);
}

TEST(SelectExtreme, FullDescendingOrder) {
  const std::vector<Value> values{30, 10, 50, 20, 40};
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const auto r = select(values, all_ids(values), 5, 5, seed);
    ASSERT_EQ(r.winners.size(), 5u);
    const std::vector<NodeId> expect_ids{2, 4, 0, 3, 1};
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(r.winners[i].id, expect_ids[i]) << "seed " << seed;
    }
    EXPECT_EQ(r.winners[0].value, 50);
    EXPECT_EQ(r.winners[4].value, 10);
  }
}

TEST(SelectExtreme, TopMOnly) {
  const std::vector<Value> values{5, 25, 15, 35, 45};
  const auto r = select(values, all_ids(values), 2, 5, 3);
  ASSERT_EQ(r.winners.size(), 2u);
  EXPECT_EQ(r.winners[0].id, 4u);
  EXPECT_EQ(r.winners[1].id, 3u);
}

TEST(SelectExtreme, MinDirection) {
  const std::vector<Value> values{5, 25, 15, 35, 45};
  const auto r = select(values, all_ids(values), 2, 5, 5, Direction::kMin);
  ASSERT_EQ(r.winners.size(), 2u);
  EXPECT_EQ(r.winners[0].id, 0u);
  EXPECT_EQ(r.winners[0].value, 5);
  EXPECT_EQ(r.winners[1].id, 2u);
}

TEST(SelectExtreme, MLargerThanCandidates) {
  const std::vector<Value> values{7, 3};
  const auto r = select(values, all_ids(values), 10, 2, 1);
  ASSERT_EQ(r.winners.size(), 2u);
  EXPECT_EQ(r.winners[0].value, 7);
  EXPECT_EQ(r.winners[1].value, 3);
}

TEST(SelectExtreme, AnnouncesEveryWinner) {
  const std::vector<Value> values{1, 2, 3, 4};
  const auto r = select(values, all_ids(values), 3, 4, 7);
  EXPECT_EQ(r.comm.by_kind(MsgKind::kWinnerAnnounce), 3u);
}

TEST(SelectExtreme, MessageTotalsMatchNetwork) {
  // A selection speaks only the session vocabulary: reports up, round
  // beacons and winner announcements down.
  const std::vector<Value> values{9, 8, 7, 6, 5, 4, 3, 2};
  const auto r = select(values, all_ids(values), 4, 8, 9);
  EXPECT_EQ(r.comm.total(), r.comm.by_kind(MsgKind::kValueReport) +
                                r.comm.by_kind(MsgKind::kRoundBeacon) +
                                r.comm.by_kind(MsgKind::kWinnerAnnounce));
  EXPECT_EQ(r.comm.upstream(), r.comm.by_kind(MsgKind::kValueReport));
}

TEST(SelectExtreme, CostScalesLinearlyInM) {
  std::vector<Value> values(64);
  for (std::size_t i = 0; i < 64; ++i) values[i] = static_cast<Value>(i);
  double cost1 = 0;
  double cost8 = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    cost1 += static_cast<double>(
        select(values, all_ids(values), 1, 64, seed).comm.total());
    cost8 += static_cast<double>(
        select(values, all_ids(values), 8, 64, seed).comm.total());
  }
  // 8 iterations should cost roughly 8x one iteration (within 2x slack).
  EXPECT_GT(cost8, 4.0 * cost1);
  EXPECT_LT(cost8, 16.0 * cost1);
}

TEST(SelectExtreme, WinnersAreDistinct) {
  const std::vector<Value> values{4, 4, 4, 4};  // ties everywhere
  const auto r = select(values, all_ids(values), 4, 4, 11);
  ASSERT_EQ(r.winners.size(), 4u);
  std::vector<NodeId> ids;
  for (const auto& w : r.winners) ids.push_back(w.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<NodeId>{0, 1, 2, 3}));
  // Tie-break order: smaller ids first.
  EXPECT_EQ(r.winners[0].id, 0u);
  EXPECT_EQ(r.winners[3].id, 3u);
}

TEST(ProtocolOptionsTest, SelectionWorksWithSuppression) {
  const std::vector<Value> values{50, 10, 40, 20, 30};
  const auto r = select(values, all_ids(values), 5, 5, 17, Direction::kMax,
                        /*suppress=*/true);
  ASSERT_EQ(r.winners.size(), 5u);
  EXPECT_EQ(r.winners[0].id, 0u);
  EXPECT_EQ(r.winners[4].id, 1u);
}

}  // namespace
}  // namespace topkmon
