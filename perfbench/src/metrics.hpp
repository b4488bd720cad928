// The benchmark's own arithmetic: percentiles with their sample counts,
// span self time, timer-cost subtraction and the per-step rate bases.
// Header-only and free of topkmon types so perfbench_selftest can pin it
// without linking the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A percentile together with the evidence behind it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< how many values it was taken over
  std::size_t beyond = 0;   ///< how many values are strictly greater
};

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are <= it (p in (0, 100]). Empty input gives all zeros.
inline Percentile percentile(std::vector<double> v, double p) {
  Percentile out;
  out.samples = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  out.value = v[idx];
  out.beyond = static_cast<std::size_t>(
      v.end() - std::upper_bound(v.begin(), v.end(), out.value));
  return out;
}

/// The highest percentile that keeps at least `min_beyond` samples beyond
/// it: p = 100 * (1 - min_beyond / n), nearest rank. With fewer than
/// min_beyond + 1 samples it is the maximum. `p` reports the percentile.
struct Tail {
  double p = 0.0;
  Percentile at;
};

inline Tail tail_percentile(std::vector<double> v, std::size_t min_beyond) {
  Tail out;
  if (v.size() <= min_beyond) {
    out.p = 100.0;
  } else {
    out.p = 100.0 * (1.0 - static_cast<double>(min_beyond) /
                               static_cast<double>(v.size()));
  }
  out.at = percentile(std::move(v), out.p);
  return out;
}

/// Median with the midpoint rule for an even count (0 for empty input).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// A closed-open time interval [start, end) in nanoseconds.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// A layer's self time: the span's duration minus the part of it that
/// its child spans cover. Children may overlap each other or stick out
/// of the parent; only their union inside the parent is subtracted.
inline std::int64_t self_time(Interval span, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t cursor = span.start;
  for (const Interval& c : children) {
    const std::int64_t lo = std::max(c.start, cursor);
    const std::int64_t hi = std::min(c.end, span.end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return (span.end - span.start) - covered;
}

/// Cost of one instrumented callback, from a calibration loop. A timed
/// callback adds `pair_ns` to its enclosing span (two clock reads plus
/// the bookkeeping around them) and reads `inner_ns` for an empty body;
/// an untimed (counted, not sampled) callback adds `bare_ns`.
struct TimerCost {
  double pair_ns = 0.0;
  double inner_ns = 0.0;
  double bare_ns = 0.0;
};

/// Estimated total time of `calls` callbacks of which `timed` were
/// measured, summing to `measured_ns`: the clock's share is removed from
/// each measured one, and the mean scales to all calls (never below zero).
inline double estimated_children(double measured_ns, std::uint64_t timed,
                                 std::uint64_t calls, const TimerCost& cost) {
  if (timed == 0) return 0.0;
  const double per_call =
      std::max(0.0, measured_ns / static_cast<double>(timed) - cost.inner_ns);
  return per_call * static_cast<double>(calls);
}

/// An enclosing span with the instrumentation of its `timed` and
/// `untimed` callbacks removed (never below zero).
inline double corrected_parent(double measured_ns, std::uint64_t timed,
                               std::uint64_t untimed, const TimerCost& cost) {
  return std::max(0.0, measured_ns - static_cast<double>(timed) * cost.pair_ns -
                           static_cast<double>(untimed) * cost.bare_ns);
}

/// num / den, or 0 when the base is empty (a ratio with no base has no
/// value; callers print the base next to it).
inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Median over seeds of each seed's mean: per_run[i] belongs to seed
/// i % seeds. Every seed weighs the same however many repeats it got, so
/// a commit that fits one more repeat into the budget does not shift the
/// seed mix.
///
/// Within a seed, a mean: the shared host alternates between a slow and
/// a fast state, so repeats fall in two clusters, and a median over them
/// jumps from one cluster to the other as their shares cross one half,
/// while a mean moves only as far as the shares do. Across seeds, a
/// median: a rare seed can cost several times the others (a steady-phase
/// shard renegotiation on drift_sharded), and a mean would let one such
/// seed move a whole run. Seeds without a repeat are left out (0 for
/// empty input).
inline double median_of_seed_means(const std::vector<double>& per_run,
                                   std::size_t seeds) {
  std::vector<double> seed_means;
  for (std::size_t j = 0; j < seeds; ++j) {
    double sum = 0.0;
    std::size_t repeats = 0;
    for (std::size_t i = j; i < per_run.size(); i += seeds, ++repeats) {
      sum += per_run[i];
    }
    if (repeats != 0) seed_means.push_back(sum / static_cast<double>(repeats));
  }
  return median(std::move(seed_means));
}

/// Totals of one run_scenario call, and the rates derived from them.
/// Step 0 is construction plus time-0 initialization; steps 1..steps are
/// the steady phase. steps_per_s has the steady phase as its base. The
/// count rates have the whole run as their base (setup included, steps
/// executed = steps + 1), as RunResult::messages_per_step() does: on a
/// quiet workload the steady phase may send no message at all, and a
/// rate with an empty base says nothing.
struct RunTotals {
  std::uint64_t steps = 0;   ///< steady observation steps (excl. step 0)
  std::uint64_t msgs = 0;    ///< charged messages, all tiers, whole run
  std::uint64_t allocs = 0;  ///< heap allocations, whole run
  double wall_s = 0.0;       ///< whole run
  double init_s = 0.0;       ///< setup part of wall_s
};

struct RunRates {
  double steps_per_s = 0.0;      ///< steady steps / steady seconds
  double msgs_per_step = 0.0;    ///< msgs / steps executed
  double host_ns_per_msg = 0.0;  ///< wall ns / msgs
  double allocs_per_step = 0.0;  ///< allocs / steps executed
};

inline RunRates run_rates(const RunTotals& r) {
  RunRates out;
  const double executed = static_cast<double>(r.steps + 1);
  const double msgs = static_cast<double>(r.msgs);
  out.steps_per_s = ratio(static_cast<double>(r.steps), r.wall_s - r.init_s);
  out.msgs_per_step = ratio(msgs, executed);
  out.host_ns_per_msg = ratio(r.wall_s * 1e9, msgs);
  out.allocs_per_step = ratio(static_cast<double>(r.allocs), executed);
  return out;
}

}  // namespace perfbench
