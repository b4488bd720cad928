// Untraced measurement through the entry point users call,
// exp::run_scenario, plus the run fingerprint every repeat and the traced
// replica must reproduce.
#pragma once

#include <array>
#include <chrono>
#include <ctime>
#include <cstdint>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread, in nanoseconds.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// How slow the host runs right now, as a ratio to a fixed nominal
/// speed: the time of a fixed reference job (sorting a copy of 64Ki
/// random 32-bit keys, three times) over kNominalNs. On a shared VM the
/// whole machine slows down and speeds up by up to 2x for minutes at a
/// time, longer than one run, and the reference job slows with it (less
/// than the workloads do). Step rates and median step times measured next
/// to an index are scaled by it: in ten runs of sched_churn on a 4-vCPU
/// shared Xeon VM that cut the spread of steps/s between runs from 0.19
/// to 0.08 of its median. The job touches only memory allocated once, in
/// the constructor.
class HostIndex {
 public:
  /// Median time of the reference job on a 4-vCPU shared Xeon VM. It
  /// sets only the scale of the normalised timings.
  static constexpr double kNominalNs = 19.0e6;

  HostIndex();
  /// Runs the reference job once and returns its time / kNominalNs.
  double sample();

 private:
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> scratch_;
  std::uint64_t checksum_ = 0;
};

/// Order-sensitive hash of every step's answer (FNV-1a over step index
/// and the sorted id list).
class AnswerHash {
 public:
  void add(topkmon::TimeStep t, const std::vector<topkmon::NodeId>& ids) {
    mix(t);
    mix(ids.size());
    for (const topkmon::NodeId id : ids) mix(id);
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// What a run must reproduce exactly: charged messages by kind on both
/// tiers, wrong steps and the answer hash.
struct Fingerprint {
  std::array<std::uint64_t, topkmon::kNumMsgKinds> node_tier{};
  std::array<std::uint64_t, topkmon::kNumMsgKinds> root_tier{};
  std::uint64_t wrong_steps = 0;
  std::uint64_t answer_hash = 0;

  bool operator==(const Fingerprint&) const = default;
  std::uint64_t total_msgs() const;
  std::string describe() const;
};

Fingerprint make_fingerprint(const topkmon::CommStats& node_tier,
                             const topkmon::CommStats& root_tier,
                             std::uint64_t wrong_steps,
                             std::uint64_t answer_hash);

/// One untraced run_scenario call and what the benchmark reads off it.
struct UntracedRun {
  topkmon::RunResult result;
  Fingerprint fp;
  /// Steps 1..n, previous answer -> this answer, in thread CPU time: the
  /// step's own cost without the time the host kept the thread off the
  /// CPU (on a shared VM, preemption otherwise sets the tail).
  std::vector<double> step_us;
  std::vector<double> step_wall_us;  ///< the same intervals in wall time
  std::uint64_t allocs = 0;         ///< whole call
  std::uint64_t steady_allocs = 0;  ///< between the step-0 and last answers
};

UntracedRun run_untraced(const Workload& w, std::uint64_t seed,
                         std::uint64_t steps);

}  // namespace perfbench
