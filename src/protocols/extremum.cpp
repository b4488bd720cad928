#include "protocols/extremum.hpp"

#include <stdexcept>

#include "protocols/beacon.hpp"

namespace topkmon {

ProtocolResult run_extremum_protocol(Cluster& cluster,
                                     std::span<const NodeId> participants,
                                     std::uint64_t n_upper, Direction dir,
                                     const ProtocolOptions& opts) {
  ProtocolResult result;
  if (participants.empty()) return result;
  if (n_upper < participants.size()) {
    throw std::invalid_argument(
        "run_extremum_protocol: N must upper-bound the participant count");
  }

  const std::uint32_t epoch = cluster.next_protocol_epoch();
  const std::uint64_t n_pow2 = next_pow2(n_upper);
  const std::uint32_t log_n = floor_log2(n_pow2);

  Network& net = cluster.net();

  // Node-side per-participant view of the latest beacon of *this* epoch.
  // Indexed like `participants`; knowledge arrives only via drained
  // broadcasts.
  struct NodeView {
    bool has_beacon = false;
    Value beacon_value = 0;
    NodeId beacon_holder = kNoHolder;
  };
  std::vector<NodeView> views(participants.size());
  std::vector<Message> mail;  // drain scratch, reused across rounds

  NodeRuntime& rt = cluster.runtime();
  for (const NodeId id : participants) rt.listening.set(id);

  // Coordinator-side running extremum, fed exclusively by received reports.
  bool have_best = false;
  Value best_value = 0;
  NodeId best_holder = kNoHolder;

  for (std::uint32_t r = 0; r <= log_n; ++r) {
    ++result.rounds;

    // --- node phase -------------------------------------------------------
    for (std::size_t idx = 0; idx < participants.size(); ++idx) {
      const NodeId id = participants[idx];
      if (!rt.listening.test(id)) continue;
      const Value node_value = rt.values[id];

      // Receive pending broadcasts; keep only beacons of this epoch.
      net.drain_node(id, mail);
      for (const Message& m : mail) {
        if (m.kind != MsgKind::kRoundBeacon) continue;
        const auto beacon = unpack_beacon_b(m.b);
        if (beacon.epoch != epoch) continue;
        // A beacon without a holder means "no report seen yet" and carries
        // no deactivation power (matters for the minimum direction, where
        // any sentinel value would wrongly beat real values).
        if (beacon.holder == kNoHolder) continue;
        views[idx].has_beacon = true;
        views[idx].beacon_value = m.a;
        views[idx].beacon_holder = beacon.holder;
      }

      // Line 8: a node beaten by the broadcast extremum deactivates.
      if (views[idx].has_beacon &&
          !beats(dir, node_value, id, views[idx].beacon_value,
                 views[idx].beacon_holder)) {
        rt.listening.clear(id);
        continue;
      }

      // Line 11: Bernoulli(2^r / N) coin flip.
      if (rt.rngs[id].bernoulli_pow2(r, log_n)) {
        Message report;
        report.kind = MsgKind::kValueReport;
        report.a = node_value;
        net.node_send(id, report);
        ++result.reports;
        rt.listening.clear(id);
      }
    }

    // --- coordinator phase --------------------------------------------------
    bool improved = false;
    net.drain_coordinator(mail);
    for (const Message& m : mail) {
      if (m.kind != MsgKind::kValueReport) continue;
      if (!have_best || beats(dir, m.a, m.from, best_value, best_holder)) {
        have_best = true;
        best_value = m.a;
        best_holder = m.from;
        improved = true;
      }
    }

    // Line 18: broadcast the running extremum (optionally only on change).
    const bool is_last_round = (r == log_n);
    if (!opts.suppress_idle_broadcasts || (improved && !is_last_round)) {
      if (!is_last_round) {  // a beacon after the final round informs nobody
        Message beacon;
        beacon.kind = MsgKind::kRoundBeacon;
        beacon.a = have_best ? best_value : kMinusInf;
        beacon.b = pack_beacon_b(epoch, have_best ? best_holder : kNoHolder);
        net.coord_broadcast(beacon);
        ++result.beacons;
      }
    }
  }

  // The final round has success probability 1, so every node that was still
  // active reported; with >= 1 participant the coordinator saw >= 1 report.
  result.found = have_best;
  result.winner = best_holder;
  result.extremum = best_value;

  for (const NodeId id : participants) rt.listening.clear(id);
  return result;
}

ProtocolResult run_max_protocol(Cluster& cluster,
                                std::span<const NodeId> participants,
                                std::uint64_t n_upper,
                                const ProtocolOptions& opts) {
  return run_extremum_protocol(cluster, participants, n_upper, Direction::kMax,
                               opts);
}

ProtocolResult run_min_protocol(Cluster& cluster,
                                std::span<const NodeId> participants,
                                std::uint64_t n_upper,
                                const ProtocolOptions& opts) {
  return run_extremum_protocol(cluster, participants, n_upper, Direction::kMin,
                               opts);
}

}  // namespace topkmon
