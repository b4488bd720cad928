// A native monitor deployment driven by hand, for white-box tests: the
// test sets every node's value, steps the SimDriver, and reads the
// answer, the counters and the role objects' own introspection
// (FilterNode::filter()/member(), FilterCoordinator::boundary(), ...).
// Each step() begins a new CommStats step, like exp::run_scenario.
#pragma once

#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/filter.hpp"
#include "core/filter_roles.hpp"
#include "exp/monitor_registry.hpp"
#include "sim/cluster.hpp"

namespace topkmon::rig {

class Rig {
 public:
  /// Builds the role pair of `spec` for top-k size `k` on n nodes (the
  /// registry's constructor checks fire here; k > n fires in init()).
  Rig(const std::string& spec, std::size_t k, std::size_t n,
      std::uint64_t seed = 1)
      : cluster_(n, seed),
        pair_(exp::make_role_pair(cluster_, spec, k)),
        driver_(cluster_, *pair_.coordinator, pair_.nodes, pair_.native) {}

  /// Time 0: observe `values` and initialize.
  void init(const std::vector<Value>& values) {
    cluster_.stats().begin_step(0);
    set(values);
    driver_.initialize();
  }

  /// The next observation step over `values`.
  void step(const std::vector<Value>& values) {
    cluster_.stats().begin_step(++t_);
    set(values);
    driver_.step(t_);
  }

  const std::vector<NodeId>& topk() const { return pair_.coordinator->topk(); }
  const MonitorStats& stats() const {
    return pair_.coordinator->monitor_stats();
  }
  const CommStats& comm() const { return cluster_.stats(); }
  Cluster& cluster() { return cluster_; }

  std::vector<Value> values() const {
    std::vector<Value> v(cluster_.size());
    for (NodeId i = 0; i < cluster_.size(); ++i) v[i] = cluster_.value(i);
    return v;
  }

  template <typename C>
  const C& coord() const {
    return dynamic_cast<const C&>(*pair_.coordinator);
  }
  template <typename N>
  const N& node(NodeId id) const {
    return dynamic_cast<const N&>(*pair_.nodes.at(id));
  }

  /// Lemma 2.2 over the filter nodes' installed filters and membership
  /// beliefs (topk_filter / approx deployments).
  bool filters_valid() const {
    std::vector<Filter> filters;
    std::vector<char> member;
    for (NodeId i = 0; i < cluster_.size(); ++i) {
      filters.push_back(node<FilterNode>(i).filter());
      member.push_back(node<FilterNode>(i).member() ? 1 : 0);
    }
    const auto v = values();
    return is_valid_filter_set(v, filters, member);
  }

 private:
  void set(const std::vector<Value>& values) {
    for (NodeId i = 0; i < values.size(); ++i) cluster_.set_value(i, values[i]);
  }

  Cluster cluster_;
  exp::RolePair pair_;
  SimDriver driver_;
  TimeStep t_ = 0;
};

}  // namespace topkmon::rig
