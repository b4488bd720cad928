// Algorithm-level event counters shared by every monitor: each
// CoordinatorAlgo (core/roles.hpp) keeps one MonitorStats, and
// RunResult reports it next to the message counts.
#pragma once

#include <cstdint>

namespace topkmon {

/// Algorithm-level event counters (communication itself is counted by
/// CommStats; these explain *why* messages happened).
struct MonitorStats {
  std::uint64_t violation_steps = 0;    ///< steps with >= 1 filter violation
  std::uint64_t violations = 0;         ///< individual node violations
  std::uint64_t handler_calls = 0;      ///< FILTERVIOLATIONHANDLER invocations
  std::uint64_t midpoint_updates = 0;   ///< broadcast filter midpoint changes
  std::uint64_t filter_resets = 0;      ///< FILTERRESET invocations
  std::uint64_t protocol_runs = 0;      ///< max/min protocol executions
  std::uint64_t polls = 0;              ///< coordinator-initiated probes
  std::uint64_t full_rebuilds = 0;      ///< defensive full re-initializations
  std::uint64_t resyncs = 0;            ///< crash-recovery re-sync handshakes
  std::uint64_t resync_retries = 0;     ///< re-sync probes resent on timeout
  std::uint64_t reset_backoffs = 0;     ///< defensive rebuilds deferred by
                                        ///< the reset backoff (opt-in)
  std::uint64_t suspicions = 0;         ///< nodes put under suspicion by the
                                        ///< failure-inference machinery
  std::uint64_t quarantines = 0;        ///< suspicions escalated to quarantine
  std::uint64_t stale_detections = 0;   ///< quarantines caused by a report
                                        ///< contradicting the node's signal
  std::uint64_t assign_replays = 0;     ///< warm-standby recoveries served by
                                        ///< an assignment-log replay instead
                                        ///< of the probe handshake
};

}  // namespace topkmon
