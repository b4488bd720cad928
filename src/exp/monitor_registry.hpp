// Name-indexed construction of every Top-k-Position monitor, so sweep
// grids, Scenario specs and the experiment CLI can select algorithms
// declaratively instead of hard-coding factories in each experiment.
//
// A monitor spec is `name` optionally followed by `?key=value,...`
// parameters, e.g.
//
//   "topk_filter"                 the paper's Algorithm 1
//   "topk_filter?nobeacon"        idle-beacon-suppression ablation
//   "slack?alpha=0.1"             B&O-style placement comparator
//   "slack?adaptive"              adaptive placement
//   "approx?eps=512"              ε-approximate variant
//   "multi_k?ks=2+8+16"           simultaneous k ∈ {2,8,16}
//   "recompute?nobeacon"          classical per-step recomputation
//
// make_role_pair yields the role-separated deployment (CoordinatorAlgo +
// n NodeAlgos) that run_scenario drives; every monitor is native, so
// every spec runs under any network policy, worker count and fault plan.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/roles.hpp"
#include "sim/cluster.hpp"

namespace topkmon {
struct ShardedSpec;
}  // namespace topkmon

namespace topkmon::exp {

/// A deployable role-separated monitor: one coordinator plus one node
/// algorithm per cluster node.
struct RolePair {
  std::unique_ptr<CoordinatorAlgo> coordinator;
  std::vector<std::unique_ptr<NodeAlgo>> nodes;
  /// Always true (kept because perfbench/src/traced.cpp reads it).
  static constexpr bool native = true;
};

/// Instantiates the role-separated deployment described by `spec` on
/// `cluster`. Throws std::invalid_argument for unknown names/parameters.
RolePair make_role_pair(Cluster& cluster, std::string_view spec,
                        std::size_t k);

/// True when `spec`'s base name is a registered monitor.
bool is_known_monitor(std::string_view spec) noexcept;

/// Splits the deployment-level `shards=c` parameter out of a monitor spec
/// ("topk_filter?shards=4,nobeacon" -> {"topk_filter?nobeacon", 4}).
/// Returns shards == 0 when the parameter is absent, so callers can tell
/// "not given" from an explicit value; an explicit parameter always wins
/// over Scenario::shards. Throws std::invalid_argument for a malformed
/// or zero value. The remaining spec never reaches the monitor factories
/// with a `shards` key — sharding is a deployment property (a
/// ShardedDeployment under exp::run_scenario), not a monitor parameter.
std::pair<std::string, std::size_t> split_shards_param(std::string_view spec);

/// The monitor half of a ShardedSpec for a (shards-stripped) spec:
/// "topk_filter" with its `nobeacon` flag, or a parameterless "naive" /
/// "naive_chg". Throws std::invalid_argument for any other monitor or
/// parameter (the ports, `?backoff`, `?suspect` and `?replay` have no
/// sharded deployment).
ShardedSpec sharded_monitor_spec(std::string_view spec);

/// All registered monitor base names, in a stable canonical order (the
/// paper's Algorithm 1 first, then baselines).
const std::vector<std::string>& all_monitor_names();

}  // namespace topkmon::exp
