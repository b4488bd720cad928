// Algorithm 2 of the paper: the randomized Las-Vegas protocol that
// determines the maximum (or, dually, minimum) value currently held by a
// set of nodes using O(log N) messages in expectation and w.h.p.
//
// Execution (MAXIMUMPROTOCOL(N)): all participants start active. In round
// r = 0..log N each active node whose value still beats the last broadcast
// beacon flips an independent coin with success probability 2^r/N and, on
// success, reports (id, value) to the coordinator and deactivates; nodes
// beaten by the beacon deactivate silently. After collecting the round's
// reports the coordinator broadcasts the running extremum. In the final
// round the success probability is 1, so every still-active node reports:
// the protocol always returns the exact extremum (Las Vegas), only the
// message count is random (E[#reports] <= 2 log N + 1, Theorem 4.2).
//
// Ties are broken toward the smaller node id, making the result unique
// even without the paper's pairwise-distinct assumption.
#pragma once

#include <span>

#include "sim/cluster.hpp"
#include "util/types.hpp"

namespace topkmon {

/// Which extremum the protocol computes.
enum class Direction { kMax, kMin };

/// Tunables / ablations for a protocol execution.
struct ProtocolOptions {
  /// Ablation: broadcast the round beacon only when the running extremum
  /// improved this round (the paper broadcasts every round; suppression
  /// trades beacon messages for weaker node deactivation).
  bool suppress_idle_broadcasts = false;
};

/// Outcome and message accounting of one protocol execution. The messages
/// are also charged to the cluster's CommStats; the per-run counts here
/// support per-execution analysis (Theorem 4.2 experiments).
struct ProtocolResult {
  bool found = false;          ///< false iff the participant set was empty
  NodeId winner = kNoHolder;   ///< holder of the extremum
  Value extremum = 0;          ///< the extremum value
  std::uint32_t rounds = 0;    ///< rounds executed (log N + 1)
  std::uint64_t reports = 0;   ///< node -> coordinator value reports
  std::uint64_t beacons = 0;   ///< coordinator round-beacon broadcasts

  std::uint64_t messages() const noexcept { return reports + beacons; }
};

/// True if (va, ia) beats (vb, ib) in direction `dir` under the smaller-id
/// tie break.
constexpr bool beats(Direction dir, Value va, NodeId ia, Value vb,
                     NodeId ib) noexcept {
  if (va != vb) return dir == Direction::kMax ? va > vb : va < vb;
  return ia < ib;
}

/// Runs Algorithm 2 (or its minimum dual) over `participants` at the
/// current instant. `n_upper` is the parameter N of the paper: any upper
/// bound on the number of participants (rounded up to a power of two
/// internally). Participant values are read from the cluster and reach the
/// coordinator only through messages.
ProtocolResult run_extremum_protocol(Cluster& cluster,
                                     std::span<const NodeId> participants,
                                     std::uint64_t n_upper, Direction dir,
                                     const ProtocolOptions& opts = {});

/// Convenience wrapper: MAXIMUMPROTOCOL(n_upper).
ProtocolResult run_max_protocol(Cluster& cluster,
                                std::span<const NodeId> participants,
                                std::uint64_t n_upper,
                                const ProtocolOptions& opts = {});

/// Convenience wrapper: MINIMUMPROTOCOL(n_upper).
ProtocolResult run_min_protocol(Cluster& cluster,
                                std::span<const NodeId> participants,
                                std::uint64_t n_upper,
                                const ProtocolOptions& opts = {});

}  // namespace topkmon
