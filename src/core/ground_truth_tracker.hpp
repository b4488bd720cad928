// Incremental ground-truth maintenance for per-step validation.
//
// The batch helpers in core/ground_truth.hpp recompute the true top-k from
// scratch: every call snapshots all n values, allocates an id vector and
// partial-sorts it. Validating a monitor after *every* observation step —
// what run_scenario does — turns that into the dominant cost
// of a run once the monitor itself is quiet.
//
// GroundTruthTracker keeps the answer alive across steps instead. It
// mirrors the value vector, the membership flags of the current true
// top-k, and the two boundary extrema that decide whether the set is
// still correct:
//
//   member_min_     the worst-ranked member (min value, ties by id),
//   nonmember_max_  the best-ranked non-member.
//
// Ranking is the library's canonical total order (value descending, ties
// toward the smaller id), so the tracked set is exactly
// true_topk_set / true_topk_ordered at every query — the equivalence the
// unit tests enforce over randomized trajectories of every stream family.
//
// Cost model: set_value() is O(1) for members and O(log n) for
// non-members (their updates also push a snapshot onto a lazy max-heap).
// A query first repairs the extrema — O(k) when a member update stalled
// the member minimum, amortized O(log n) when the boundary non-member
// decayed (the lazy heap pops stale snapshots until its top is current;
// boundary_rescans counts these repair events) — and only when the
// boundary was actually crossed performs a full O(n log k) rebuild
// (full_rebuilds). The heap is compacted back to one entry per
// non-member when stale snapshots outnumber live ones 2:1, so its size
// stays O(n) and, at steady state, no query or update allocates: all
// scratch is owned by the tracker and reused.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace topkmon {

class GroundTruthTracker {
 public:
  /// Tracks the top `k` of `n` values, all initially 0. Requires
  /// 1 <= k <= n.
  GroundTruthTracker(std::size_t n, std::size_t k);

  std::size_t size() const noexcept { return values_.size(); }
  std::size_t k() const noexcept { return k_; }

  /// Updates node `id`'s value. O(1); the membership consequence is
  /// settled lazily at the next query.
  void set_value(NodeId id, Value v);

  /// Current value of node `id`.
  Value value(NodeId id) const { return values_[id]; }

  /// The true top-k ids sorted ascending — element-identical to
  /// true_topk_set(values, k).
  const std::vector<NodeId>& topk_set();

  /// The true top-k ids in rank order (best first) — element-identical to
  /// true_topk_ordered(values, k). O(k log k) per call.
  const std::vector<NodeId>& ordered_topk();

  /// Strict validation: `answer` equals the canonical sorted top-k set.
  bool matches_strict(std::span<const NodeId> answer);

  /// Weak validation, element-identical to is_valid_topk(values, answer):
  /// true iff `answer` has no bad/duplicate ids and every member's value
  /// >= every non-member's value (any tie-break accepted).
  bool is_valid(std::span<const NodeId> answer);

  /// Value of the worst-ranked member (repairs lazily first). The sharded
  /// runtime reads this as the shard's weakest-member extremum U_s.
  Value member_min_value() {
    ensure_current();
    return member_min_val_;
  }

  /// Value of the best-ranked non-member, or -inf when k == n leaves no
  /// non-member. The sharded runtime reads this as the shard's
  /// strongest-outsider extremum L_s.
  Value nonmember_max_value() {
    if (k_ == size()) return kMinusInf;
    ensure_current();
    return nonmember_max_val_;
  }

  // -- diagnostics ----------------------------------------------------------
  /// Full O(n log k) rebuilds performed (boundary crossings + the initial
  /// build).
  std::uint64_t full_rebuilds() const noexcept { return full_rebuilds_; }

  /// Boundary repairs performed because the boundary non-member's value
  /// decayed (no membership change) — amortized O(log n) lazy-heap pops
  /// each, where the pre-PR4 implementation paid an O(n) rescan.
  std::uint64_t boundary_rescans() const noexcept { return boundary_rescans_; }

 private:
  /// Canonical ranking: a before b <=> larger value, ties to smaller id.
  static bool ranks_before(Value va, NodeId a, Value vb, NodeId b) noexcept {
    return va != vb ? va > vb : a < b;
  }

  /// Repairs extrema dirt and rebuilds membership if the boundary was
  /// crossed; afterwards member flags / sorted set / extrema are exact.
  void ensure_current();
  void rescan_member_min();
  void repair_nonmember_max();
  void full_rebuild();

  /// One lazy-heap snapshot: node `id` had value `value` when pushed.
  /// Valid iff the value is still current and the node is a non-member.
  struct HeapEntry {
    Value value;
    NodeId id;
  };

  /// Pushes a snapshot for a non-member update (compacts when stale
  /// entries dominate).
  void nm_heap_push(Value v, NodeId id);

  /// Rebuilds the heap to exactly one live snapshot per non-member.
  void nm_heap_rebuild();

  std::size_t k_;
  std::vector<Value> values_;
  std::vector<char> member_;       ///< current true top-k membership
  std::vector<NodeId> sorted_set_; ///< members sorted by id (canonical)

  Value member_min_val_ = 0;       ///< worst-ranked member
  NodeId member_min_id_ = 0;
  Value nonmember_max_val_ = 0;    ///< best-ranked non-member (k < n only)
  NodeId nonmember_max_id_ = 0;

  bool built_ = false;             ///< first query triggers the initial build
  bool member_dirty_ = false;      ///< member minimum may have risen
  bool nonmember_dirty_ = false;   ///< non-member maximum may have fallen

  std::uint64_t full_rebuilds_ = 0;
  std::uint64_t boundary_rescans_ = 0;

  // Reused scratch (no per-query allocations at steady state).
  std::vector<NodeId> rank_scratch_;    ///< rebuild / ordered-query ids
  std::vector<NodeId> ordered_topk_;
  std::vector<char> cand_member_;       ///< is_valid() candidate flags

  /// Lazy max-heap of non-member value snapshots under the canonical
  /// order; between full rebuilds each non-member always has its current
  /// value on the heap, so the first non-stale top is nonmember_max.
  std::vector<HeapEntry> nm_heap_;
};

}  // namespace topkmon
