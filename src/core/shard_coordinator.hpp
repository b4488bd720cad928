// Shard tier of the hierarchical multi-coordinator deployment.
//
// A sharded deployment (core/root_merge.hpp) partitions the n nodes into c
// contiguous shards. Each shard is a complete, independent role-based
// deployment — its own Cluster (network, RNG streams, message accounting),
// its own coordinator running the existing monitor protocol over a quota
// q_s of the global k (sum of quotas == k), and its own SimDriver. The
// global answer is the union of the per-shard member sets.
//
// This file provides the per-shard machinery:
//
//  * partition_shards()   word-aligned contiguous ranges, so a shard's
//                         nodes occupy whole bitset words (the same
//                         substrate the parallel tick loop shards by) and
//                         shard s can later map 1:1 onto worker s;
//  * initial_shard_quotas() largest-remainder split of k over the ranges;
//  * ShardAdapter         the root tier's handle on one shard: poll the
//                         boundary-crossing predicate, read/refresh the
//                         shard extrema (U_s = weakest member's value,
//                         L_s = strongest outsider's value), change the
//                         quota, and re-anchor on the root boundary R;
//  * NaiveShardAdapter    naive/naive_chg shard. The coordinator's value
//                         replica already holds every node's last report,
//                         so quota changes and extrema queries are
//                         coordinator-local (no node traffic);
//  * FilterShardAdapter   Algorithm 1 shard, built once. Extrema are exact
//                         only right after a FILTERRESET, a requery or a
//                         quota move (the T+/T- accumulators go stale
//                         between them). A requery runs one extremum
//                         session per side; a one-unit quota move swaps
//                         the T+ or T- holder across the boundary and runs
//                         one session for the side it left — instead of
//                         the k+1 selections of a FILTERRESET. All of it
//                         is charged to the node<->shard tier.
//
// Exactness invariant (instant delivery): every shard keeps its filters
// anchored on one shared root boundary R with L_s <= R <= U_s. Then every
// member of any shard outranks every outsider of any shard, so the union
// of the member sets is the true global top-k. A shard whose extrema
// drift across R reports to the root (crossing() turns true), which
// renegotiates quotas and re-anchors — the steady state stays entirely
// within shards.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/driver.hpp"
#include "core/filter_roles.hpp"
#include "core/naive_roles.hpp"
#include "core/roles.hpp"
#include "sim/cluster.hpp"

namespace topkmon {

/// One shard's contiguous global-id range: [base, base + size).
struct ShardRange {
  NodeId base = 0;
  std::size_t size = 0;
};

/// Splits n nodes into `shards` contiguous non-empty ranges. When the
/// bitset word count (ceil(n/64)) is >= shards, boundaries are
/// word-aligned (balanced in words); otherwise the split balances node
/// counts directly. Requires 1 <= shards <= n.
std::vector<ShardRange> partition_shards(std::size_t n, std::size_t shards);

/// Largest-remainder split of the global k over the shard sizes: each
/// quota is proportional to its shard's size, capped by it, and the
/// quotas sum to exactly k. Requires k <= n.
std::vector<std::size_t> initial_shard_quotas(
    std::span<const ShardRange> ranges, std::size_t n, std::size_t k);

/// Deterministic per-shard cluster seed: shard 0 keeps the scenario seed
/// verbatim (a 1-shard deployment is then seed-identical to the
/// monolithic path), later shards derive via SplitMix64.
std::uint64_t shard_seed(std::uint64_t base_seed, std::size_t shard) noexcept;

/// Field-wise sum of MonitorStats (per-shard totals -> deployment total).
inline void add_monitor_stats(MonitorStats& into,
                              const MonitorStats& from) noexcept {
  into.violation_steps += from.violation_steps;
  into.violations += from.violations;
  into.handler_calls += from.handler_calls;
  into.midpoint_updates += from.midpoint_updates;
  into.filter_resets += from.filter_resets;
  into.protocol_runs += from.protocol_runs;
  into.polls += from.polls;
  into.full_rebuilds += from.full_rebuilds;
  into.resyncs += from.resyncs;
  into.resync_retries += from.resync_retries;
  into.reset_backoffs += from.reset_backoffs;
  into.suspicions += from.suspicions;
  into.quarantines += from.quarantines;
  into.stale_detections += from.stale_detections;
  into.assign_replays += from.assign_replays;
}

/// The shard extrema the root tier merges over.
struct ShardExtrema {
  Value weakest_member = kPlusInf;     ///< U_s; +inf at quota 0
  Value strongest_outsider = kMinusInf;  ///< L_s; -inf at quota == size
};

/// Construction parameters shared by the shard adapters.
struct ShardConfig {
  std::size_t n = 0;        ///< shard size (incl. not-yet-joined ids)
  std::size_t quota = 0;    ///< initial per-shard k
  std::uint64_t seed = 0;   ///< shard cluster seed (see shard_seed)
  NetworkSpec network{};    ///< node<->shard delivery policy
  std::size_t workers = 1;  ///< inner tick-scan workers (1-shard runs only)
  bool dense_loop = false;  ///< diagnostic dense driver loop
  /// True in a c > 1 deployment: engages the pinned-boundary protocol and
  /// the quota-0 / quota-n edge cases. False at c == 1, where the shard
  /// must be message-for-message identical to the monolithic path.
  bool sharded = true;
  /// Shard-local fault schedule (nullptr = fault-free). Must outlive the
  /// adapter.
  const FaultPlan* faults = nullptr;
  /// Trailing shard-local ids provisioned for a later join event: ids
  /// [n - join_reserve, n) start down (transport off, on_init deferred)
  /// and go live when their join fires in the shard's fault schedule.
  std::size_t join_reserve = 0;
};

/// The root tier's handle on one shard deployment.
///
/// Threading: step() calls on distinct adapters are independent (each
/// adapter owns its cluster/driver) and may run on pool threads; all
/// other methods — the root coordinator's renegotiation plumbing — run on
/// the owner thread between steps.
class ShardAdapter {
 public:
  virtual ~ShardAdapter() = default;

  /// Builds and initializes the shard deployment (values already set).
  virtual void initialize() = 0;

  /// One observation step; `changed` holds shard-local ids.
  virtual void step(TimeStep t, std::span<const NodeId> changed) = 0;

  /// True when the shard's extrema may straddle the root boundary and the
  /// root must renegotiate. Always false before the first set_pin.
  virtual bool crossing() = 0;

  /// Current extrema belief (cheap; may be conservative/stale for the
  /// filter shard between resets — good enough to *report* a crossing,
  /// never used for quota decisions).
  virtual ShardExtrema extrema() = 0;

  /// Exact extrema refresh. The filter shard runs one extremum session
  /// per side (charged to the node<->shard tier); the naive shard's
  /// replica is already current.
  virtual ShardExtrema requery() = 0;

  /// Renegotiated quota (0 <= q <= size); returns fresh extrema. Only the
  /// root tier calls it, so never at c == 1 (the inert root moves no
  /// quota; a k change there is the shard driver's kSetK event).
  virtual ShardExtrema set_quota(std::size_t q) = 0;

  /// Anchors the shard on the root boundary R (filters re-anchor and the
  /// injected traffic is pumped before this returns).
  virtual void set_pin(Value r) = 0;

  /// Current member set, shard-local ids ascending.
  virtual const std::vector<NodeId>& members() const = 0;

  virtual std::size_t quota() const = 0;
  virtual Cluster& cluster() = 0;
  virtual const MonitorStats& monitor_stats() const = 0;

  /// Inner-driver delivery ticks consumed so far (monotonic); recovery-
  /// window accounting in the sharded scenario runner keys on it.
  virtual SimTime ticks() const = 0;
};

/// naive / naive_chg shard (see file comment).
class NaiveShardAdapter final : public ShardAdapter {
 public:
  NaiveShardAdapter(const ShardConfig& cfg, bool send_on_change_only);

  void initialize() override;
  void step(TimeStep t, std::span<const NodeId> changed) override;
  bool crossing() override;
  ShardExtrema extrema() override;
  ShardExtrema requery() override { return extrema(); }
  ShardExtrema set_quota(std::size_t q) override;
  void set_pin(Value r) override { pin_ = r; }
  const std::vector<NodeId>& members() const override {
    return coord_->topk();
  }
  std::size_t quota() const override { return quota_; }
  Cluster& cluster() override { return cluster_; }
  const MonitorStats& monitor_stats() const override {
    return coord_->monitor_stats();
  }
  SimTime ticks() const override { return driver_->now(); }

 private:
  ShardConfig cfg_;
  std::size_t quota_;
  Cluster cluster_;
  std::optional<Value> pin_;
  std::unique_ptr<NaiveCoordinator> coord_;
  std::vector<std::unique_ptr<NodeAlgo>> nodes_;
  std::unique_ptr<SimDriver> driver_;
};

/// topk_filter shard (see file comment).
class FilterShardAdapter final : public ShardAdapter {
 public:
  FilterShardAdapter(const ShardConfig& cfg, bool suppress_idle_broadcasts);

  void initialize() override;
  void step(TimeStep t, std::span<const NodeId> changed) override;
  bool crossing() override;
  ShardExtrema extrema() override;
  ShardExtrema requery() override;
  ShardExtrema set_quota(std::size_t q) override;
  void set_pin(Value r) override;
  const std::vector<NodeId>& members() const override {
    return coord_->topk();
  }
  std::size_t quota() const override { return coord_->k(); }
  Cluster& cluster() override { return cluster_; }
  const MonitorStats& monitor_stats() const override {
    return coord_->monitor_stats();
  }
  SimTime ticks() const override { return driver_->now(); }

 private:
  /// extrema() after a requery or quota move. When the sessions could not
  /// establish exact extrema (a lost report, an aborted fallback
  /// selection), the shard is untrusted: it reports no outsider and, at
  /// non-zero quota, an unfillable member side, so the root only ever
  /// moves quota away from it.
  ShardExtrema exact_extrema();

  ShardConfig cfg_;
  Cluster cluster_;
  /// Stable pin storage; FilterCoordinator::Options points here, so the
  /// root can move the boundary without touching the coordinator.
  std::optional<Value> pin_;
  std::unique_ptr<FilterCoordinator> coord_;
  std::vector<std::unique_ptr<NodeAlgo>> nodes_;
  std::unique_ptr<SimDriver> driver_;
};

}  // namespace topkmon
