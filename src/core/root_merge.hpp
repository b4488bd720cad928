// Root tier of the hierarchical multi-coordinator deployment, plus the
// deployment object that assembles both tiers.
//
// The root tier is itself a role-based deployment on a c-node cluster:
// each "node" is a ShardAgent speaking for one shard coordinator (via its
// ShardAdapter), and the RootMergeCoordinator runs a second filter layer
// over those c virtual nodes, whose "values" are the shard extrema
// (U_s = weakest member, L_s = strongest outsider). Root-tier traffic
// flows through the root cluster's own Network/CommStats, so the
// shard<->root message count is accounted separately from the
// node<->shard tier — the quantity the sharding experiments plot.
//
// Root protocol (instant root network, existing MsgKinds only):
//
//   agent -> root   kViolation    a = U_s, b = L_s. Sent at bootstrap and
//                                 whenever the shard's boundary crossed
//                                 the root filter (crossing()).
//   root -> agents  kProbe        broadcast: "requery exact extrema and
//                                 report" — opens a renegotiation.
//   root -> agent   kFilterAssign a = new quota (renegotiation transfer;
//                                 the agent replies with fresh extrema).
//   root -> agents  kFilterUpdate a = R, the new shared root boundary;
//                                 each shard re-anchors its filters on it.
//
// A renegotiation collects exact extrema from every shard, then moves
// quota one unit at a time from the shard with the weakest member (min U)
// to the shard with the strongest outsider (max L) while L_gainer >
// U_loser — each transfer strictly improves the merged member multiset,
// so the fixpoint terminates — and finally anchors every shard on
// R = midpoint(max_s L_s, min_s U_s), restoring L_s <= R <= U_s for all s
// (the exactness invariant of core/shard_coordinator.hpp). In steady
// state no boundary crosses R and the root tier is silent: all traffic
// stays inside the shards.
//
// At c == 1 the tier is inert by construction: the agent and coordinator
// detect the single-shard deployment in on_init and never send, the shard
// runs unsharded (no pin, monolithic edge cases), and shard 0 keeps the
// scenario seed — so a 1-shard ShardedDeployment is message-for-message
// and answer-for-answer identical to the monolithic path (pinned by
// tests/core/test_shard_equivalence.cpp and the e18 suite).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/driver.hpp"
#include "core/roles.hpp"
#include "core/shard_coordinator.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "util/worker_pool.hpp"

namespace topkmon {

/// Root-tier node algorithm: one per shard, wrapping its ShardAdapter.
/// Stays in the needs-observe set forever (the crossing poll is the
/// per-step work). Inert in a 1-shard deployment.
class ShardAgent final : public NodeAlgo {
 public:
  explicit ShardAgent(ShardAdapter& adapter) : adapter_(adapter) {}

  void on_init(NodeCtx& ctx, Value) override {
    if (ctx.n() <= 1) return;
    send_extrema(ctx, adapter_.extrema());
  }
  void on_observe(NodeCtx& ctx, Value, TimeStep) override {
    if (ctx.n() > 1 && adapter_.crossing()) send_extrema(ctx, adapter_.extrema());
  }
  void on_message(NodeCtx& ctx, const Message& m) override {
    switch (m.kind) {
      case MsgKind::kProbe:
        send_extrema(ctx, adapter_.requery());
        break;
      case MsgKind::kFilterAssign:
        send_extrema(ctx,
                     adapter_.set_quota(static_cast<std::size_t>(m.a)));
        break;
      case MsgKind::kFilterUpdate:
        adapter_.set_pin(m.a);
        break;
      default:
        break;
    }
  }

 private:
  void send_extrema(NodeCtx& ctx, const ShardExtrema& e) {
    Message m;
    m.kind = MsgKind::kViolation;
    m.a = e.weakest_member;
    m.b = e.strongest_outsider;
    ctx.send(m);
  }

  ShardAdapter& adapter_;
};

/// Root-tier coordinator: merges the c shard answers and renegotiates
/// quotas/boundary when a shard reports a crossing (see file comment).
/// Assembles the global answer on the uncharged measurement plane each
/// step — the charged protocol's job is maintaining the union-correctness
/// invariant, not shipping the id list (the monolithic coordinator's
/// answer set is equally a coordinator-local view).
class RootMergeCoordinator final : public CoordinatorAlgo {
 public:
  /// `name` is reported as the deployment's monitor name (the inner
  /// monitor's, so result tables match the monolithic path at c == 1).
  RootMergeCoordinator(std::string name, std::size_t k,
                       std::span<const std::unique_ptr<ShardAdapter>> adapters,
                       std::vector<ShardRange> ranges);

  std::string_view name() const override { return name_; }
  void on_init(CoordCtx& ctx) override;
  void on_step_begin(CoordCtx& ctx, TimeStep t) override;
  void on_message(CoordCtx& ctx, const Message& m) override;
  void on_step_end(CoordCtx& ctx, TimeStep t) override;
  const std::vector<NodeId>& topk() const override { return topk_ids_; }

  /// The shared root boundary R, once established.
  std::optional<Value> root_boundary() const {
    return have_r_ ? std::optional<Value>(r_) : std::nullopt;
  }

  /// Dynamic reconfiguration: renegotiate the global top-k size to `k`
  /// at the next step. The quota fixpoint generalizes to an off-target
  /// total: while sum(quota) < k the shard with the strongest outsider
  /// is granted a slot, while sum(quota) > k the shard with the weakest
  /// member gives one up — each kFilterAssign moves the total one unit
  /// toward k before the usual improving transfers run, so the
  /// renegotiation terminates at the new total with the merged answer
  /// exact. Callable between steps (scenario-side fault plumbing); the
  /// next on_step_begin opens the renegotiation.
  void request_k(std::size_t k) noexcept { pending_k_ = k; }

 private:
  /// Latest extrema report from one shard. `fresh` means "reported since
  /// the last probe/assign touched this shard" — quota decisions only run
  /// on a full set of fresh, exact extrema.
  struct Info {
    Value u = kPlusInf;
    Value l = kMinusInf;
    bool fresh = false;
  };

  void begin_renegotiation(CoordCtx& ctx);
  void advance_fixpoint(CoordCtx& ctx);
  void finish_renegotiation(CoordCtx& ctx);

  std::string name_;
  std::size_t k_;
  std::span<const std::unique_ptr<ShardAdapter>> adapters_;
  std::vector<ShardRange> ranges_;

  bool inert_ = false;  ///< c == 1: never sends, only merges the answer
  enum class RPhase : std::uint8_t {
    kIdle,     ///< steady state; a kViolation opens a renegotiation
    kCollect,  ///< waiting for fresh extrema from every shard
  };
  RPhase rphase_ = RPhase::kIdle;
  std::optional<std::size_t> pending_k_;  ///< request_k, applied at step begin
  bool have_r_ = false;
  Value r_ = 0;
  std::vector<Info> info_;
  std::size_t fresh_ = 0;  ///< number of shards with info_[s].fresh

  TimeStep cur_step_ = 0;
  bool violation_this_step_ = false;

  std::vector<NodeId> topk_ids_;
};

/// Construction parameters of a two-tier sharded deployment.
struct ShardedSpec {
  std::size_t n = 0;          ///< total nodes (incl. not-yet-joined ids)
  std::size_t k = 0;          ///< global top-k size
  std::size_t shards = 1;     ///< shard count c (1 <= c <= n)
  std::uint64_t seed = 0;     ///< scenario seed (shard 0 keeps it verbatim)
  NetworkSpec network{};      ///< node<->shard policy (root net is instant)
  std::size_t workers = 1;    ///< parallelism (see ShardedDeployment)
  bool dense_loop = false;    ///< diagnostic dense inner driver loops
  enum class Monitor : std::uint8_t { kFilter, kNaive, kNaiveChg };
  Monitor monitor = Monitor::kFilter;
  /// topk_filter's beacon-suppression ablation, forwarded to every shard.
  bool suppress_idle_broadcasts = false;
  /// Deployment-level fault schedule (global ids; nullptr = fault-free;
  /// must outlive the deployment). Membership churn is carved into
  /// per-shard plans with shard-local ids and fired by the shard drivers;
  /// quotas split over the initially-live prefix only. kSetK events fire
  /// in the single shard's driver at c == 1 (the monolithic schedule);
  /// at c > 1 they stay with the caller (route them through set_k).
  /// Degradations (lag/stale/mute) are not supported sharded — the
  /// scenario runner rejects such plans before construction.
  const FaultPlan* faults = nullptr;
};

/// A complete two-tier deployment: c shard deployments plus the root
/// tier, presenting the same set_value / initialize / step / topk surface
/// as a monolithic monitor run.
///
/// Parallelism: at c == 1 `workers` runs the single shard's parallel tick
/// scan (exactly the monolithic behaviour). At c > 1 the shards' inner
/// drivers run serial and `workers` instead steps whole shards
/// concurrently on a WorkerPool — each shard owns its cluster/driver, the
/// pool's static index assignment keeps the shard->thread mapping fixed,
/// and the root tier (serial, between steps) is the only cross-shard
/// coupling, so results are byte-identical for every worker count.
class ShardedDeployment {
 public:
  explicit ShardedDeployment(const ShardedSpec& spec);

  std::size_t shards() const noexcept { return ranges_.size(); }
  const ShardRange& range(std::size_t s) const { return ranges_.at(s); }
  /// Owning shard of a global node id.
  std::size_t shard_of(NodeId global) const;

  /// Routes a global-id value write to the owning shard's cluster.
  void set_value(NodeId global, Value v);

  /// Time 0: values must already be set. Initializes every shard (serial),
  /// then the root tier — the bootstrap renegotiation establishes R and
  /// anchors every shard on it before the first observation step.
  void initialize();

  /// One observation step; `changed` holds global ids (any order).
  void step(TimeStep t, std::span<const NodeId> changed);

  /// Dynamic reconfiguration to a new global top-k size (1 <= k <= n),
  /// applied warm: the root renegotiates shard quotas to the new total at
  /// the next step (RootMergeCoordinator::request_k). Call between steps,
  /// before the step the new k takes effect at. c > 1 only (throws
  /// std::logic_error at c == 1, where the single shard's driver fires
  /// the kSetK events of spec.faults itself).
  void set_k(std::size_t k);

  const std::vector<NodeId>& topk() const { return root_coord_->topk(); }
  std::string_view name() const { return root_coord_->name(); }
  const RootMergeCoordinator& root() const { return *root_coord_; }
  Cluster& shard_cluster(std::size_t s) { return adapters_.at(s)->cluster(); }

  /// Max inner-driver delivery ticks across the shards (monotonic), so the
  /// sharded scenario runner can key recovery-window accounting on it
  /// exactly like the monolithic runner keys on SimDriver::now().
  SimTime ticks() const;

  /// node<->shard tier message totals: the per-shard cluster counters
  /// summed (at c == 1, a plain copy of the single shard's stats, series
  /// included).
  CommStats node_shard_comm();
  /// shard<->root tier message totals (zero at c == 1 by construction).
  const CommStats& shard_root_comm() const { return root_cluster_->stats(); }
  /// Algorithm counters: the shard coordinators' plus the root's, summed
  /// field-wise.
  MonitorStats monitor_totals() const;

 private:
  ShardedSpec spec_;
  std::vector<ShardRange> ranges_;
  /// Per-shard carved fault schedules (shard-local ids). Filled once in
  /// the constructor and never resized after: the adapters hold stable
  /// pointers into it, so it must be declared before them (destroyed
  /// after).
  std::vector<FaultPlan> shard_plans_;
  std::vector<std::unique_ptr<ShardAdapter>> adapters_;
  std::vector<std::unique_ptr<NodeAlgo>> agents_;
  std::unique_ptr<Cluster> root_cluster_;
  std::unique_ptr<RootMergeCoordinator> root_coord_;
  std::unique_ptr<SimDriver> root_driver_;
  std::optional<WorkerPool> pool_;  ///< engaged at c > 1 && workers > 1
  std::vector<std::vector<NodeId>> changed_by_shard_;  ///< step scratch
  std::vector<std::exception_ptr> shard_errors_;       ///< step scratch
};

}  // namespace topkmon
