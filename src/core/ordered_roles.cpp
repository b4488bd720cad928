#include "core/ordered_roles.hpp"

#include <algorithm>
#include <stdexcept>

namespace topkmon {

// ---------------------------------------------------------------------------
// OrderedNode
// ---------------------------------------------------------------------------

Value OrderedNode::to_w(const NodeCtx& ctx, Value v) const noexcept {
  const auto n = static_cast<Value>(ctx.n());
  return v * n + (n - 1 - static_cast<Value>(ctx.id()));
}

void OrderedNode::on_init(NodeCtx& ctx, Value) {
  // The initial guard interval is [-inf, +inf]; the coordinator's init
  // reset assigns real slots through the announce order.
  ctx.set_needs_observe(false);
}

void OrderedNode::on_observe(NodeCtx& ctx, Value v, TimeStep) {
  const Value w = to_w(ctx, v);
  if (filter_.contains(w)) {
    ctx.set_needs_observe(false);
    return;
  }
  ctx.set_needs_observe(true);
  // Violation classification, evaluated on
  // the node's own beliefs (synchronized by updates and announces):
  // outsiders raise a boundary-side violation, members below the shared
  // boundary a below-fall, everything else is internal churn that only
  // re-ranks the members.
  if (!member_) {
    pending_ = Pending::kOut;
    ctx.signal(0);
  } else if (boundary_active(ctx) && w < mid_w_) {
    pending_ = Pending::kBelow;
    ctx.signal(1);
  } else {
    pending_ = Pending::kNone;
    ctx.signal(2);
  }
}

void OrderedNode::on_message(NodeCtx& ctx, const Message& m) {
  switch (m.kind) {
    case MsgKind::kRoundBeacon:
      sess_.handle_beacon(m);
      break;
    case MsgKind::kWinnerAnnounce: {
      // The announce order is common knowledge: rank r of the selection
      // is the r-th announce. Each node derives its own rank, membership
      // and slot interval locally — no extra charged messages.
      if (!selecting_) break;
      const auto beacon = unpack_beacon_b(m.b);
      const auto n = static_cast<Value>(ctx.n());
      sel_w_.push_back(m.a * n + (n - 1 - static_cast<Value>(beacon.holder)));
      if (beacon.holder == ctx.id()) {
        excluded_ = true;
        sel_own_rank_ = announces_seen_;
      }
      ++announces_seen_;
      if (announces_seen_ == sel_want_) finish_selection(ctx);
      break;
    }
    case MsgKind::kFilterUpdate: {
      // Boundary move: only the outsiders' upper bound and the lowest
      // member's lower bound depend on the shared boundary.
      selecting_ = false;
      mid_w_ = m.a;
      if (!member_) {
        filter_ = Filter{kMinusInf, mid_w_};
      } else if (rank_ + 1 == k_) {
        filter_ = Filter{mid_w_, slot_hi_};
      }
      ctx.set_needs_observe(!filter_.contains(to_w(ctx, ctx.value())));
      break;
    }
    default:
      break;  // kProtocolStart is informational for nodes
  }
}

void OrderedNode::on_control(NodeCtx& ctx, const Control& c) {
  switch (static_cast<OrderedControlOp>(c.op)) {
    case OrderedControlOp::kStartSelection: {
      selecting_ = true;
      excluded_ = false;
      announces_seen_ = 0;
      sel_w_.clear();
      sel_own_rank_.reset();
      sel_want_ = static_cast<std::size_t>(c.a);
      sel_type_ = c.b == 1 ? SelType::kInternal : SelType::kFull;
      k_ = static_cast<std::size_t>(c.c);
      // The selection supersedes any unconsumed violation (reachable
      // only when a reset begins without the usual violator sessions:
      // recovery, dynamic k, or the defensive rebuild).
      pending_ = Pending::kNone;
      // A full reset re-derives membership from scratch; a member
      // re-rank keeps it (only members participate).
      if (sel_type_ == SelType::kFull) member_ = false;
      break;
    }
    case OrderedControlOp::kStartSession: {
      const auto group = static_cast<OrderedSessionGroup>(c.b);
      bool join = false;
      switch (group) {
        case OrderedSessionGroup::kViolBelow:
          join = (pending_ == Pending::kBelow);
          if (join) pending_ = Pending::kNone;
          break;
        case OrderedSessionGroup::kViolOut:
          join = (pending_ == Pending::kOut);
          if (join) pending_ = Pending::kNone;
          break;
        case OrderedSessionGroup::kAllMembers:
          join = member_;
          break;
        case OrderedSessionGroup::kAllOutsiders:
          join = !member_;
          break;
        case OrderedSessionGroup::kSelectAll:
          join = selecting_ && !excluded_;
          break;
        case OrderedSessionGroup::kSelectMembers:
          join = selecting_ && member_ && !excluded_;
          break;
      }
      if (join) {
        sess_.join(ctx, unpack_session_start(c));
      } else {
        sess_.skip();
      }
      break;
    }
  }
}

void OrderedNode::on_timer(NodeCtx& ctx) { sess_.run_round(ctx, ctx.value()); }

void OrderedNode::on_recover(NodeCtx& ctx) {
  // Machine state (filter_, member_, rank_, the RNG) survives the
  // outage; session- and selection-scoped state must not. The filter may
  // predate slots renegotiated during the outage — stay in the observe
  // set until the coordinator's recovery reset re-ranks everyone.
  sess_.reset();
  selecting_ = false;
  excluded_ = false;
  announces_seen_ = 0;
  pending_ = Pending::kNone;
  ctx.set_needs_observe(true);
}

void OrderedNode::finish_selection(NodeCtx& ctx) {
  selecting_ = false;
  if (sel_type_ == SelType::kFull) {
    member_ = sel_own_rank_.has_value() && *sel_own_rank_ < k_;
    if (member_) rank_ = *sel_own_rank_;
    // boundary_active: T- is the (k+1)-st announce, T+ the k-th.
    mid_w_ = boundary_active(ctx) ? midpoint(sel_w_[k_], sel_w_[k_ - 1])
                                  : kMinusInf;
  } else if (sel_own_rank_.has_value()) {
    member_ = true;
    rank_ = *sel_own_rank_;
  }
  rebuild_slot(ctx);
}

void OrderedNode::rebuild_slot(NodeCtx& ctx) {
  if (member_ && rank_ >= sel_w_.size()) {
    // Stale membership belief (possible only under message loss): the
    // announce order did not cover this rank. Keep the old filter; the
    // node's next violation or the coordinator's next reset repairs it.
    return;
  }
  if (member_) {
    slot_hi_ = rank_ == 0 ? kPlusInf : midpoint(sel_w_[rank_], sel_w_[rank_ - 1]);
    const Value lo = rank_ + 1 == k_ ? mid_w_
                                     : midpoint(sel_w_[rank_ + 1], sel_w_[rank_]);
    filter_ = Filter{lo, slot_hi_};
  } else {
    filter_ = Filter{kMinusInf, mid_w_};
  }
  ctx.set_needs_observe(!filter_.contains(to_w(ctx, ctx.value())));
}

// ---------------------------------------------------------------------------
// OrderedCoordinator
// ---------------------------------------------------------------------------

OrderedCoordinator::OrderedCoordinator(std::size_t k, Options opts) : k_(k) {
  if (k == 0) {
    throw std::invalid_argument("OrderedCoordinator: k must be >= 1");
  }
  sess_.suppress_idle = opts.suppress_idle_broadcasts;
}

Value OrderedCoordinator::to_w(NodeId id, Value v) const noexcept {
  return v * static_cast<Value>(n_) +
         (static_cast<Value>(n_) - 1 - static_cast<Value>(id));
}

void OrderedCoordinator::on_init(CoordCtx& ctx) {
  n_ = ctx.n();
  if (k_ > n_) {
    throw std::invalid_argument("OrderedCoordinator: k > n");
  }
  boundary_active_ = k_ < n_;
  in_topk_.assign(n_, 0);
  // Unlike the unordered monitors there is no degenerate k == n shortcut:
  // the order itself must be established and maintained.
  begin_full_reset(ctx);
}

void OrderedCoordinator::on_step_begin(CoordCtx& ctx, TimeStep) {
  const auto& signals = ctx.signals();
  if (!signals.empty()) {
    ++mstats_.violation_steps;
    mstats_.violations += signals.size();
    for (const Signal& s : signals) {
      if (s.code == 0) {
        pending_out_ = true;
      } else if (s.code == 1) {
        pending_below_ = true;
      } else {
        pending_internal_ = true;
      }
    }
  }
  if (phase_ != Phase::kIdle) return;
  if (order_.size() != k_) {
    // The order was never established — a reset selection aborted under
    // message loss. Defensively re-run it; no filter violation can
    // convene repair while the nodes hold no real slots.
    ++mstats_.full_rebuilds;
    begin_full_reset(ctx);
    return;
  }
  if (pending_below_ || pending_out_ || pending_internal_) start_cycle(ctx);
}

void OrderedCoordinator::on_message(CoordCtx&, const Message& m) {
  if (m.kind != MsgKind::kValueReport) return;
  sess_.fold(m);
}

void OrderedCoordinator::on_timer(CoordCtx& ctx) {
  if (!sess_.active) {
    // Inter-iteration gap of a selection: the previous iteration's winner
    // announcement is in flight; convening the next iteration before it
    // lands would let the winner re-join. Zero ticks under instant.
    if (pending_select_) {
      if (select_gap_ > 0) {
        --select_gap_;
        ctx.arm_timer();
        return;
      }
      pending_select_ = false;
      start_selection_iteration(ctx);
    }
    return;
  }
  if (!sess_.advance(ctx)) return;
  conclude_session(ctx);
}

void OrderedCoordinator::start_cycle(CoordCtx& ctx) {
  cycle_below_ = pending_below_;
  cycle_out_ = pending_out_;
  cycle_internal_ = pending_internal_;
  pending_below_ = pending_out_ = pending_internal_ = false;
  min_w_.reset();
  max_w_.reset();
  if (cycle_below_ || cycle_out_) {
    if (cycle_below_) {
      phase_ = Phase::kViolBelow;
      start_session(ctx, Direction::kMin, OrderedSessionGroup::kViolBelow, k_);
    } else {
      phase_ = Phase::kViolOut;
      start_session(ctx, Direction::kMax, OrderedSessionGroup::kViolOut,
                    n_ - k_);
    }
  } else {
    // Pure internal churn: the boundary holds, only the order above it
    // may have changed.
    begin_internal_rebuild(ctx);
  }
}

void OrderedCoordinator::start_session(CoordCtx& ctx, Direction dir,
                                       OrderedSessionGroup group,
                                       std::uint64_t n_upper) {
  ++mstats_.protocol_runs;
  sess_.begin(ctx, static_cast<std::int64_t>(OrderedControlOp::kStartSession),
              dir, static_cast<std::int64_t>(group), n_upper);
}

void OrderedCoordinator::conclude_session(CoordCtx& ctx) {
  // A selection iteration announces its winner even when it repeats —
  // the redundant announcement is what tells a repeated winner it is
  // excluded (see FilterCoordinator::conclude_session).
  if (phase_ == Phase::kSelect) sess_.announce(ctx);
  if (!sess_.have_best) {
    // Only possible under message loss: every report was dropped.
    abort_cycle();
    return;
  }
  switch (phase_) {
    case Phase::kViolBelow:
      min_w_ = to_w(sess_.best_holder, sess_.best_value);
      if (cycle_out_) {
        phase_ = Phase::kViolOut;
        start_session(ctx, Direction::kMax, OrderedSessionGroup::kViolOut,
                      n_ - k_);
      } else {
        handler_transition(ctx);
      }
      break;
    case Phase::kViolOut:
      max_w_ = to_w(sess_.best_holder, sess_.best_value);
      handler_transition(ctx);
      break;
    case Phase::kFullSide:
      if (sess_.dir == Direction::kMax) {
        max_w_ = to_w(sess_.best_holder, sess_.best_value);
      } else {
        min_w_ = to_w(sess_.best_holder, sess_.best_value);
      }
      decide(ctx);
      break;
    case Phase::kSelect: {
      for (const auto& w : sel_winners_) {
        if (w.second == sess_.best_holder) {
          // A repeat winner (lost announce, drops only): the selection
          // order is corrupted beyond local repair — abandon the reset;
          // the defensive rebuild or the next violation retries.
          abort_cycle();
          return;
        }
      }
      sel_winners_.emplace_back(sess_.best_value, sess_.best_holder);
      if (sel_winners_.size() < sel_want_) {
        const std::uint64_t gap = ctx.flush_ticks();
        if (gap == 0) {
          start_selection_iteration(ctx);
        } else {
          pending_select_ = true;
          select_gap_ = gap;
          ctx.arm_timer();
        }
      } else {
        finish_selection(ctx);
      }
      break;
    }
    case Phase::kIdle:
      break;  // unreachable
  }
}

void OrderedCoordinator::handler_transition(CoordCtx& ctx) {
  // Obtain the side extremum the violations did not deliver (announced
  // by a charged kProtocolStart); violating outsiders force a fresh
  // minimum over every member, which re-certifies T+ after the boundary
  // side grew (the same overwrite the lock-step monitor performs).
  ++mstats_.handler_calls;
  phase_ = Phase::kFullSide;
  Message start;
  start.kind = MsgKind::kProtocolStart;
  if (!max_w_.has_value()) {
    start.a = 0;  // side: non-top-k
    ctx.broadcast(start);
    start_session(ctx, Direction::kMax, OrderedSessionGroup::kAllOutsiders,
                  n_ - k_);
  } else {
    start.a = 1;  // side: top-k
    ctx.broadcast(start);
    start_session(ctx, Direction::kMin, OrderedSessionGroup::kAllMembers, k_);
  }
}

void OrderedCoordinator::decide(CoordCtx& ctx) {
  tplus_w_ = std::min(tplus_w_, *min_w_);
  tminus_w_ = std::max(tminus_w_, *max_w_);
  if (tplus_w_ < tminus_w_) {
    // The membership may have changed; recompute from scratch.
    begin_full_reset(ctx);
    return;
  }
  ++mstats_.midpoint_updates;
  mid_w_ = midpoint(tminus_w_, tplus_w_);
  Message update;
  update.kind = MsgKind::kFilterUpdate;
  update.a = mid_w_;
  ctx.broadcast(update);
  if (cycle_below_ || cycle_internal_) {
    // Members moved (below-fall repaired, or internal churn rode along):
    // re-rank the k members.
    begin_internal_rebuild(ctx);
  } else {
    cycle_done(ctx);
  }
}

void OrderedCoordinator::begin_full_reset(CoordCtx& ctx) {
  ++mstats_.filter_resets;
  phase_ = Phase::kSelect;
  sel_type_ = SelType::kFull;
  sel_want_ = boundary_active_ ? k_ + 1 : k_;
  sel_winners_.clear();
  Control sel;
  sel.op = static_cast<std::int64_t>(OrderedControlOp::kStartSelection);
  sel.a = static_cast<std::int64_t>(sel_want_);
  sel.b = 0;
  sel.c = static_cast<std::int64_t>(k_);
  ctx.control_broadcast(sel);
  start_selection_iteration(ctx);
}

void OrderedCoordinator::begin_internal_rebuild(CoordCtx& ctx) {
  phase_ = Phase::kSelect;
  sel_type_ = SelType::kInternal;
  sel_want_ = k_;
  sel_winners_.clear();
  Control sel;
  sel.op = static_cast<std::int64_t>(OrderedControlOp::kStartSelection);
  sel.a = static_cast<std::int64_t>(sel_want_);
  sel.b = 1;
  sel.c = static_cast<std::int64_t>(k_);
  ctx.control_broadcast(sel);
  start_selection_iteration(ctx);
}

void OrderedCoordinator::start_selection_iteration(CoordCtx& ctx) {
  if (sel_type_ == SelType::kFull) {
    start_session(ctx, Direction::kMax, OrderedSessionGroup::kSelectAll, n_);
  } else {
    start_session(ctx, Direction::kMax, OrderedSessionGroup::kSelectMembers,
                  k_);
  }
}

void OrderedCoordinator::finish_selection(CoordCtx& ctx) {
  if (sel_type_ == SelType::kFull) {
    order_.clear();
    known_w_.clear();
    std::fill(in_topk_.begin(), in_topk_.end(), char{0});
    for (std::size_t r = 0; r < k_; ++r) {
      const auto& win = sel_winners_[r];
      order_.push_back(win.second);
      known_w_.push_back(to_w(win.second, win.first));
      in_topk_[win.second] = 1;
    }
    rebuild_id_lists();
    if (boundary_active_) {
      tplus_w_ = known_w_[k_ - 1];
      tminus_w_ = to_w(sel_winners_[k_].second, sel_winners_[k_].first);
      mid_w_ = midpoint(tminus_w_, tplus_w_);
    } else {
      mid_w_ = kMinusInf;
    }
  } else {
    order_.clear();
    known_w_.clear();
    for (const auto& win : sel_winners_) {
      order_.push_back(win.second);
      known_w_.push_back(to_w(win.second, win.first));
    }
  }
  cycle_done(ctx);
}

void OrderedCoordinator::cycle_done(CoordCtx& ctx) {
  phase_ = Phase::kIdle;
  min_w_.reset();
  max_w_.reset();
  cycle_below_ = cycle_out_ = cycle_internal_ = false;
  if (resync_pending_) {
    resync_pending_ = false;
    begin_full_reset(ctx);
    return;
  }
  // Violations that arrived while the cycle ran (possible only under a
  // tick budget or delay) convene the next cycle immediately.
  if (pending_below_ || pending_out_ || pending_internal_) start_cycle(ctx);
}

void OrderedCoordinator::abort_cycle() {
  phase_ = Phase::kIdle;
  sess_.active = false;
  pending_select_ = false;
  select_gap_ = 0;
  min_w_.reset();
  max_w_.reset();
  cycle_below_ = cycle_out_ = cycle_internal_ = false;
}

void OrderedCoordinator::rebuild_id_lists() {
  topk_ids_.clear();
  for (NodeId id = 0; id < n_; ++id) {
    if (in_topk_[id]) topk_ids_.push_back(id);
  }
}

// ---------------------------------------------------------------------------
// Fault hooks: crash, recovery, dynamic k
// ---------------------------------------------------------------------------

void OrderedCoordinator::on_node_down(CoordCtx& ctx, NodeId id) {
  bool structural = in_topk_[id] != 0;
  if (phase_ == Phase::kSelect) {
    for (const auto& w : sel_winners_) {
      structural = structural || w.second == id;
    }
  }
  if (in_topk_[id]) {
    in_topk_[id] = 0;
    for (std::size_t r = 0; r < order_.size(); ++r) {
      if (order_[r] == id) {
        order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(r));
        known_w_.erase(known_w_.begin() + static_cast<std::ptrdiff_t>(r));
        break;
      }
    }
    rebuild_id_lists();
  }
  if (structural) {
    // A member (or in-flight selection winner) took its rank with it:
    // re-establish the whole order over the remaining live nodes.
    abort_cycle();
    begin_full_reset(ctx);
  }
  // A crashed non-member mid-session is just a lost report, which the
  // session machinery already tolerates.
}

void OrderedCoordinator::on_node_up(CoordCtx& ctx, NodeId) {
  // The returning node's rank is unknowable without fresh values and its
  // outage may have shifted every slot: re-rank everyone. The reset's
  // announce order doubles as the re-sync assignment, so no probe
  // round-trip machinery is needed.
  ++mstats_.resyncs;
  if (phase_ == Phase::kIdle && !sess_.active) {
    begin_full_reset(ctx);
  } else {
    resync_pending_ = true;
  }
}

void OrderedCoordinator::on_set_k(CoordCtx& ctx, std::size_t k) {
  if (k == 0 || k > n_) {
    throw std::invalid_argument("OrderedCoordinator: set_k out of range");
  }
  k_ = k;
  boundary_active_ = k_ < n_;
  abort_cycle();
  begin_full_reset(ctx);
}

}  // namespace topkmon
