// The deployment a run drives: n nodes whose values the run writes, one
// exact top-k answer per step. exp::run_scenario's single time-0..steps
// loop is written against this interface; a monolithic deployment (one
// cluster, one coordinator, one SimDriver) and the two-tier
// ShardedDeployment (core/root_merge.hpp) implement it. Every fault
// effect on the protocol side reaches a deployment through the plan it
// was built with (its drivers fire the events), so the loop only mirrors
// the plan into the ground truth.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "core/runner.hpp"

namespace topkmon {

class Deployment {
 public:
  virtual ~Deployment() = default;

  /// Writes node `id`'s current value into the cluster that owns it.
  virtual void set_value(NodeId id, Value v) = 0;

  /// Opens step t in every cluster's message accounting.
  virtual void begin_step(TimeStep t) = 0;

  /// Time 0: values must already be set.
  virtual void initialize() = 0;

  /// One observation step; `changed` lists the nodes whose value moved.
  virtual void step(TimeStep t, std::span<const NodeId> changed) = 0;

  /// The current answer, ids ascending.
  virtual const std::vector<NodeId>& topk() const = 0;
  virtual std::string_view name() const = 0;

  /// Delivery ticks consumed so far (monotonic); recovery windows key on
  /// it.
  virtual SimTime ticks() const = 0;

  /// Copies monitor_name, comm, root_comm and monitor into `out`.
  virtual void read_result(RunResult& out) = 0;
};

}  // namespace topkmon
