// The traced run: a replica of exp::run_scenario's loop assembled by the
// benchmark from each layer's public API, with a span around every call
// into a layer. Node and coordinator callbacks are timed, at the
// kCallbacks level, through benchmark-owned NodeAlgo / CoordinatorAlgo
// decorators that forward to the real roles. Its fingerprint must equal
// the untraced run's; the benchmark fails otherwise.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"
#include "metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

enum class TraceLevel {
  kSpans,      ///< step-level spans only (a few clock reads per step)
  kCallbacks,  ///< plus every node / coordinator callback, per kind
};

/// One step-level span. `parent` indexes the enclosing span in the same
/// vector, -1 for a step's root span.
struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
};

/// Per-kind callback totals. Every call is counted; node callbacks are
/// timed on a fixed pseudo-random sample (kNodeSampleMask), coordinator
/// callbacks always. `ns` sums the timed ones. `useful` counts callbacks
/// after which the node had sent a charged message or armed its timer.
struct CallbackTotals {
  std::uint64_t calls = 0;
  std::uint64_t timed = 0;
  std::uint64_t useful = 0;
  double ns = 0.0;
};

/// One node callback in (mask + 1) is timed. iid_contested makes ~36k
/// node callbacks per step against ~200 coordinator callbacks; timing
/// each one would add several times the step's own cost.
inline constexpr std::uint64_t kNodeSampleMask = 15;

enum NodeKind { kNodeMessage, kNodeObserve, kNodeTimer, kNodeControl, kNodeOther, kNodeKinds };
enum CoordKind { kCoordMessage, kCoordTimer, kCoordStepHooks, kCoordOther, kCoordKinds };

/// Everything one traced replica measured. Time totals cover the steady
/// steps 1..steps; setup fields cover construction and step 0.
struct Ledger {
  std::uint64_t steps = 0;
  double wall_s = 0.0;
  double init_s = 0.0;
  Fingerprint fp;

  // Setup.
  double build_s = 0.0;       ///< streams + deployment construction
  double initialize_s = 0.0;  ///< time-0 initialization
  std::uint64_t setup_msgs = 0;
  std::uint64_t setup_filter_resets = 0;

  // Step-level span totals (ns over the steady phase).
  double step_ns = 0.0;
  double streams_ns = 0.0;
  double set_value_ns = 0.0;
  double truth_update_ns = 0.0;
  double faults_ns = 0.0;
  double driver_ns = 0.0;
  double check_ns = 0.0;

  // Steady-phase counts.
  std::uint64_t changed = 0;
  std::uint64_t truth_full_rebuilds = 0;
  std::uint64_t truth_boundary_rescans = 0;
  std::uint64_t ticks = 0;
  std::uint64_t driver_allocs = 0;
  std::uint64_t upstream = 0;
  std::uint64_t unicast = 0;
  std::uint64_t broadcast = 0;
  std::uint64_t dropped = 0;
  std::uint64_t root_msgs = 0;
  std::uint64_t protocol_runs = 0;
  std::uint64_t violations = 0;
  std::array<CallbackTotals, kNodeKinds> node{};
  std::array<CallbackTotals, kCoordKinds> coord{};

  // Whole-run fault outcome.
  std::uint64_t resyncs = 0;
  std::uint64_t resync_retries = 0;
  std::uint64_t max_recovery_ticks = 0;

  std::vector<Span> spans;  ///< filled when requested

  /// Timed and untimed callbacks, all kinds.
  std::uint64_t timed_callbacks() const;
  std::uint64_t untimed_callbacks() const;
  /// Counted fields only, for the repeat-identity check.
  std::vector<std::uint64_t> counts() const;
};

Ledger run_traced(const Workload& w, std::uint64_t seed, TraceLevel level,
                  bool keep_spans);

/// Measures what one decorated callback costs the enclosing span, timed
/// and untimed, and what an empty timed callback reads as, with the
/// decorators the traced run uses (median of several batches).
TimerCost calibrate_callback_timer();

}  // namespace perfbench
