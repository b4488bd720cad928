// Exact (omniscient) top-k computation used for validation and for the
// offline-optimal algorithm. Ordering is by value descending with ties
// broken toward the smaller node id — the same total order every protocol
// in this library uses, so strict identity checks are meaningful.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/cluster.hpp"
#include "util/types.hpp"

namespace topkmon {

/// Ids of the k largest values, ordered by rank (best first).
std::vector<NodeId> true_topk_ordered(std::span<const Value> values,
                                      std::size_t k);

/// Ids of the k largest values, sorted by id (canonical set representation
/// for set-equality checks).
std::vector<NodeId> true_topk_set(std::span<const Value> values,
                                  std::size_t k);

/// Convenience overloads reading current values from a cluster.
std::vector<NodeId> true_topk_ordered(const Cluster& cluster, std::size_t k);
std::vector<NodeId> true_topk_set(const Cluster& cluster, std::size_t k);

/// The j-th largest value (j is 1-based; j <= n). Copies into a reusable
/// per-thread scratch buffer (no steady-state allocation).
Value nth_value(std::span<const Value> values, std::size_t j);

/// Allocation-free variant for callers that own a mutable buffer: selects
/// via std::nth_element directly on `values` (partially reordering it)
/// and returns the j-th largest.
Value nth_value_inplace(std::span<Value> values, std::size_t j);

/// Weak validity: `candidate` (any order) is *a* correct top-k answer iff
/// every member's value >= every non-member's value. Under pairwise
/// distinct values this is equivalent to set equality with the ground
/// truth; under ties any tie-break is accepted.
bool is_valid_topk(std::span<const Value> values,
                   std::span<const NodeId> candidate);

bool is_valid_topk(const Cluster& cluster, std::span<const NodeId> candidate);

/// ε-relaxed validity: `candidate` is an acceptable ε-approximate top-k
/// answer iff every member's value >= every non-member's value − eps
/// (eps = 0 recovers exact validity). This is the guarantee the
/// ε-approximate monitor ("approx") trades message volume against.
bool is_valid_topk_eps(std::span<const Value> values,
                       std::span<const NodeId> candidate, Value eps);

bool is_valid_topk_eps(const Cluster& cluster,
                       std::span<const NodeId> candidate, Value eps);

/// The largest exactness violation of `candidate`: max over (i in set,
/// j outside) of v_j − v_i, clamped below at 0. Zero iff the answer is an
/// exact valid top-k; an ε-approximate monitor keeps this <= ε ("regret").
Value topk_regret(std::span<const Value> values,
                  std::span<const NodeId> candidate);

}  // namespace topkmon
