// Reusable node/coordinator halves of one randomized extremum session
// (Algorithm 2) for native role ports. Every session-hosting monitor
// (filter, ordered, multi-k, recompute) runs its sessions through these
// two plain structs, so they share one wire protocol — same
// kStartSession control packing, same per-round kRoundBeacon /
// kValueReport exchange, same Bernoulli coin schedule, same flush-window
// conclusion — and one place that keeps the node's listening flag
// (NodeCtx::set_listening) in step with its session role.
//
// Division of labour: the owner decides who participates (group
// semantics stay monitor-specific), counts protocol_runs, and handles
// the conclusion; the structs own only the round/beacon/flush mechanics.
//
// Beacon scope: round beacons go out as session broadcasts, which reach
// only the listening nodes. A node listens from join() until it
// deactivates (beaten, reported, skipped or reset); every beacon it
// misses meanwhile is one its run_round would ignore.
#pragma once

#include <cstdint>

#include "core/roles.hpp"
#include "protocols/beacon.hpp"
#include "protocols/extremum.hpp"

namespace topkmon {

/// Packs a session-start control's c payload: (epoch << 8) | log_n.
constexpr std::int64_t pack_session_c(std::uint32_t epoch,
                                      std::uint32_t log_n) noexcept {
  return static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(epoch) << 8) | log_n);
}

struct SessionStart {
  Direction dir = Direction::kMax;
  std::uint32_t epoch = 0;
  std::uint32_t log_n = 0;
};

/// Decodes a kStartSession control (a = direction, c = (epoch<<8)|log_n);
/// the group payload b stays with the caller.
inline SessionStart unpack_session_start(const Control& c) noexcept {
  SessionStart s;
  s.dir = c.a == 1 ? Direction::kMin : Direction::kMax;
  s.epoch = static_cast<std::uint32_t>(c.c >> 8);
  s.log_n = static_cast<std::uint32_t>(c.c & 0xFF);
  return s;
}

/// Node-side state of one protocol session: the round counter, the last
/// beacon seen, and the activation flag. The owner calls join()/skip()
/// from its kStartSession handler, handle_beacon() from on_message,
/// run_round() from on_timer, and reset() from on_init and on_recover.
/// The node listens to session broadcasts exactly while `in && active`.
struct NodeProtoSession {
  // Widest fields first: the struct sits in every node object, and this
  // order packs it into 32 bytes.
  Value beacon_value = kMinusInf;
  std::uint32_t epoch = 0;
  std::uint32_t log_n = 0;
  std::uint32_t round = 0;
  NodeId beacon_holder = kNoHolder;
  Direction dir = Direction::kMax;
  bool in = false;      ///< joined the currently convened session
  bool active = false;  ///< still eligible to report
  bool has_beacon = false;

  void join(NodeCtx& ctx, const SessionStart& s) {
    in = true;
    active = true;
    dir = s.dir;
    epoch = s.epoch;
    log_n = s.log_n;
    round = 0;
    has_beacon = false;
    beacon_holder = kNoHolder;
    ctx.set_listening(true);
    ctx.arm_timer();
  }

  void skip(NodeCtx& ctx) {
    in = false;
    ctx.set_listening(false);
  }

  void handle_beacon(const Message& m) {
    if (!in) return;
    const auto beacon = unpack_beacon_b(m.b);
    if (beacon.epoch != epoch) return;
    // A beacon without a holder means "no report seen yet" and carries
    // no deactivation power.
    if (beacon.holder == kNoHolder) return;
    has_beacon = true;
    beacon_value = m.a;
    beacon_holder = beacon.holder;
  }

  /// One protocol round (Algorithm 2, node side). `report_value` is both
  /// the value folded into the beacon comparison and the kValueReport
  /// payload; `report_b` rides in the report's b word (0 for session
  /// reports by convention — re-sync replies use 1).
  void run_round(NodeCtx& ctx, Value report_value, std::int64_t report_b = 0) {
    if (!in || !active) return;
    const std::uint32_t r = round++;

    // Line 8: a node beaten by the broadcast extremum deactivates.
    if (has_beacon &&
        !beats(dir, report_value, ctx.id(), beacon_value, beacon_holder)) {
      deactivate(ctx);
      return;
    }

    // Line 11: Bernoulli(2^r / N) coin flip; the final round has p = 1.
    if (ctx.rng().bernoulli_pow2(r, log_n)) {
      Message report;
      report.kind = MsgKind::kValueReport;
      report.a = report_value;
      report.b = report_b;
      ctx.send(report);
      deactivate(ctx);
      return;
    }
    if (r >= log_n) {
      deactivate(ctx);  // defensive; the final-round coin always succeeds
      return;
    }
    ctx.arm_timer();
  }

  /// Session-scoped state must not survive an outage or a re-anchor.
  void reset(NodeCtx& ctx) {
    in = false;
    active = false;
    has_beacon = false;
    beacon_holder = kNoHolder;
    round = 0;
    ctx.set_listening(false);
  }

 private:
  /// An inactive node ignores every later beacon of the session.
  void deactivate(NodeCtx& ctx) {
    active = false;
    ctx.set_listening(false);
  }
};

/// Coordinator-side state of one protocol session: the running extremum,
/// the round/flush countdown, and the per-round beacon broadcast. The
/// owner emits the kStartSession control (group semantics differ per
/// monitor), folds reports via fold(), and drives advance() from its
/// timer; advance() returns true exactly when the session concluded.
struct CoordProtoSession {
  bool active = false;
  bool suppress_idle = false;  ///< skip beacons that repeat the extremum
  Direction dir = Direction::kMax;
  std::uint32_t epoch = 0;
  std::uint32_t log_n = 0;
  std::uint32_t round = 0;
  std::uint64_t flush = 0;
  bool have_best = false;
  bool improved = false;
  Value best_value = 0;
  NodeId best_holder = kNoHolder;
  SimTime begin_tick = 0;  ///< delivery tick begin() ran in

  /// Starts a session and emits its kStartSession control under the
  /// monitor's own control opcode; `group` rides in the control's b word
  /// and is interpreted by the owner's nodes. The caller counts
  /// protocol_runs.
  void begin(CoordCtx& ctx, std::int64_t control_op, Direction d,
             std::int64_t group, std::uint64_t n_upper) {
    dir = d;
    epoch = ctx.next_protocol_epoch();
    log_n = floor_log2(next_pow2(n_upper));
    round = 0;
    flush = ctx.flush_ticks();
    have_best = false;
    improved = false;
    best_holder = kNoHolder;
    active = true;
    begin_tick = ctx.now();

    Control start;
    start.op = control_op;
    start.a = d == Direction::kMin ? 1 : 0;
    start.b = group;
    start.c = pack_session_c(epoch, log_n);
    ctx.control_broadcast(start);
    ctx.arm_timer();
  }

  /// Folds a session kValueReport into the running extremum.
  void fold(const Message& m) {
    if (!active) return;
    if (!have_best || beats(dir, m.a, m.from, best_value, best_holder)) {
      have_best = true;
      best_value = m.a;
      best_holder = m.from;
      improved = true;
    }
  }

  /// One coordinator timer firing (end of round `round`): broadcast the
  /// running extremum or wait out the flush window. Returns true when the
  /// session just concluded — the caller then reads have_best/best_*.
  bool advance(CoordCtx& ctx) {
    if (round < log_n) {
      // Line 18: broadcast the running extremum (optionally on change)
      // to the nodes still active in the session. A beacon issued in the
      // tick the session began (convened from on_message, before its
      // start control reached any node) goes to every node: under a
      // delayed policy it can land after the nodes joined.
      if (!suppress_idle || improved) {
        Message beacon;
        beacon.kind = MsgKind::kRoundBeacon;
        beacon.a = have_best ? best_value : kMinusInf;
        beacon.b = pack_beacon_b(epoch, have_best ? best_holder : kNoHolder);
        if (ctx.now() == begin_tick) {
          ctx.broadcast(beacon);
        } else {
          ctx.session_broadcast(beacon);
        }
      }
      improved = false;
      ++round;
      ctx.arm_timer();
      return false;
    }
    // Final round complete. Under a delayed policy, reports may still be
    // in flight: wait out the network's worst-case lag before concluding
    // (zero extra ticks under instant delivery).
    if (flush > 0) {
      --flush;
      ctx.arm_timer();
      return false;
    }
    active = false;
    return true;
  }

  /// Broadcasts the winner announcement for a concluded selection
  /// iteration (no-op when every report was lost).
  void announce(CoordCtx& ctx) const {
    if (!have_best) return;
    Message announce;
    announce.kind = MsgKind::kWinnerAnnounce;
    announce.a = best_value;
    announce.b = pack_beacon_b(epoch, best_holder);
    ctx.broadcast(announce);
  }
};

}  // namespace topkmon
