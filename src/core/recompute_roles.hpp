// The "classical" algorithm of §2.1 as a native role pair: no filters —
// every time step the coordinator recomputes the top-k from scratch by k
// repeated MAXIMUMPROTOCOL(n) runs over the nodes not yet announced as
// winners, costing O(k log n) messages per step, O(T k log n) over T
// steps. Optimal up to the factor k on worst-case inputs (rotating
// maxima) but oblivious to temporal similarity; the filter-based
// Algorithm 1 exists precisely to beat it on similar inputs (E7/E9).
//
// The sessions are the shared machinery of core/role_session.hpp; each
// iteration's kWinnerAnnounce tells the winner to sit out the rest of
// the selection. Under a delayed network the coordinator waits out the
// network's worst-case lag between iterations so an announce lands
// before the next session convenes; a repeat winner (lost announce) or
// a session without reports abandons the step's selection and keeps the
// previous answer.
#pragma once

#include <cstdint>
#include <vector>

#include "core/role_session.hpp"
#include "core/roles.hpp"

namespace topkmon {

/// Control opcodes of the recompute monitor's control plane.
enum class RecomputeControlOp : std::int64_t {
  /// A new selection begins: every node is a candidate again.
  kStartSelection = 1,
  /// a = direction, c = (epoch << 8) | log_n; candidates join.
  kStartSession = 2,
};

class RecomputeNode final : public NodeAlgo {
 public:
  void on_init(NodeCtx& ctx, Value) override {
    // Values are read when a session round runs; an observation alone
    // never sends, signals or flips a coin.
    ctx.set_needs_observe(false);
    sess_.reset(ctx);
  }
  void on_message(NodeCtx& ctx, const Message& m) override;
  void on_control(NodeCtx& ctx, const Control& c) override;
  void on_timer(NodeCtx& ctx) override { sess_.run_round(ctx, ctx.value()); }
  void on_recover(NodeCtx& ctx) override {
    sess_.reset(ctx);
    excluded_ = false;
  }

 private:
  NodeProtoSession sess_;
  bool excluded_ = false;  ///< already announced as a winner this selection
};

class RecomputeCoordinator final : public CoordinatorAlgo {
 public:
  struct Options {
    /// Skip session-round beacons that would repeat the running extremum.
    bool suppress_idle_broadcasts = false;
  };

  explicit RecomputeCoordinator(std::size_t k)
      : RecomputeCoordinator(k, Options{}) {}
  RecomputeCoordinator(std::size_t k, Options opts);

  std::string_view name() const override { return "recompute"; }
  void on_init(CoordCtx& ctx) override;
  void on_step_begin(CoordCtx& ctx, TimeStep t) override;
  void on_message(CoordCtx& ctx, const Message& m) override;
  void on_timer(CoordCtx& ctx) override;
  void on_set_k(CoordCtx&, std::size_t k) override { k_ = k; }
  const std::vector<NodeId>& topk() const override { return topk_ids_; }

 private:
  void begin_selection(CoordCtx& ctx);
  void start_session(CoordCtx& ctx);
  void conclude_session(CoordCtx& ctx);
  /// Starts the next session, or publishes the answer once k winners
  /// are in.
  void next_or_finish(CoordCtx& ctx);

  std::size_t k_;
  CoordProtoSession sess_;
  bool selecting_ = false;
  std::vector<NodeId> winners_;  ///< this selection's winners, best first
  std::uint64_t gap_ = 0;        ///< ticks left before the next session
  bool gap_pending_ = false;
  std::vector<NodeId> topk_ids_;
};

}  // namespace topkmon
