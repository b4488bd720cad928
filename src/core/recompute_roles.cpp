#include "core/recompute_roles.hpp"

#include <algorithm>
#include <stdexcept>

namespace topkmon {

// ---------------------------------------------------------------------------
// RecomputeNode
// ---------------------------------------------------------------------------

void RecomputeNode::on_message(NodeCtx& ctx, const Message& m) {
  if (m.kind == MsgKind::kRoundBeacon) {
    sess_.handle_beacon(m);
  } else if (m.kind == MsgKind::kWinnerAnnounce &&
             unpack_beacon_b(m.b).holder == ctx.id()) {
    excluded_ = true;
  }
}

void RecomputeNode::on_control(NodeCtx& ctx, const Control& c) {
  switch (static_cast<RecomputeControlOp>(c.op)) {
    case RecomputeControlOp::kStartSelection:
      excluded_ = false;
      break;
    case RecomputeControlOp::kStartSession:
      if (excluded_) {
        sess_.skip();
      } else {
        sess_.join(ctx, unpack_session_start(c));
      }
      break;
  }
}

// ---------------------------------------------------------------------------
// RecomputeCoordinator
// ---------------------------------------------------------------------------

RecomputeCoordinator::RecomputeCoordinator(std::size_t k, Options opts)
    : k_(k) {
  if (k == 0) {
    throw std::invalid_argument("RecomputeCoordinator: k must be >= 1");
  }
  sess_.suppress_idle = opts.suppress_idle_broadcasts;
}

void RecomputeCoordinator::on_init(CoordCtx& ctx) {
  if (k_ > ctx.n()) throw std::invalid_argument("RecomputeCoordinator: k > n");
  begin_selection(ctx);
}

void RecomputeCoordinator::on_step_begin(CoordCtx& ctx, TimeStep) {
  // A selection still in flight (a tick budget cut the previous step
  // short) finishes first; its answer is the freshest one available.
  if (!selecting_) begin_selection(ctx);
}

void RecomputeCoordinator::on_message(CoordCtx&, const Message& m) {
  if (m.kind == MsgKind::kValueReport) sess_.fold(m);
}

void RecomputeCoordinator::on_timer(CoordCtx& ctx) {
  if (gap_pending_) {
    if (gap_ > 0) {
      --gap_;
      ctx.arm_timer();
      return;
    }
    gap_pending_ = false;
    next_or_finish(ctx);
    return;
  }
  if (sess_.active && sess_.advance(ctx)) conclude_session(ctx);
}

void RecomputeCoordinator::begin_selection(CoordCtx& ctx) {
  selecting_ = true;
  winners_.clear();
  Control sel;
  sel.op = static_cast<std::int64_t>(RecomputeControlOp::kStartSelection);
  ctx.control_broadcast(sel);
  start_session(ctx);
}

void RecomputeCoordinator::start_session(CoordCtx& ctx) {
  ++mstats_.protocol_runs;
  sess_.begin(ctx, static_cast<std::int64_t>(RecomputeControlOp::kStartSession),
              Direction::kMax, /*group=*/0, ctx.n());
}

void RecomputeCoordinator::conclude_session(CoordCtx& ctx) {
  sess_.announce(ctx);
  const bool repeat = std::find(winners_.begin(), winners_.end(),
                                sess_.best_holder) != winners_.end();
  if (!sess_.have_best || repeat) {
    // Every report was lost, or a lost announce let a winner rejoin:
    // abandon this selection and keep the previous answer.
    selecting_ = false;
    return;
  }
  winners_.push_back(sess_.best_holder);
  gap_ = ctx.flush_ticks();
  if (winners_.size() >= k_ || gap_ == 0) {
    next_or_finish(ctx);
  } else {
    gap_pending_ = true;
    ctx.arm_timer();
  }
}

void RecomputeCoordinator::next_or_finish(CoordCtx& ctx) {
  if (winners_.size() < k_) {
    start_session(ctx);
    return;
  }
  // k may have shrunk (on_set_k) while the selection ran: the first k
  // winners are the top-k.
  topk_ids_.assign(winners_.begin(),
                   winners_.begin() + static_cast<std::ptrdiff_t>(k_));
  std::sort(topk_ids_.begin(), topk_ids_.end());
  selecting_ = false;
}

}  // namespace topkmon
