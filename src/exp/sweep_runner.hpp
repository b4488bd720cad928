// Parallel execution engine for experiment sweeps.
//
// SweepRunner owns a persistent pool of worker threads and exposes two
// levels of API:
//
//   * parallel_for(count, fn) / map<T>(count, fn) — generic ordered
//     fan-out; jobs are claimed dynamically (atomic counter), results land
//     at their own index, so the output order is independent of thread
//     scheduling.
//   * run(trials) — executes expanded SweepGrid TrialSpecs and returns
//     RunResults in grid order.
//
// Each trial owns its own RNG seed (derived from grid coordinates, see
// sweep_grid.hpp) and builds its own cluster/streams, so parallel runs are
// bit-identical to serial runs. With jobs() == 1 everything executes
// inline on the calling thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/runner.hpp"
#include "exp/sweep_grid.hpp"

namespace topkmon::exp {

/// Executes one TrialSpec synchronously: builds the monitor (registry) and
/// stream set, then drives run_scenario. Thread-safe (no shared state).
RunResult run_trial(const TrialSpec& spec);

class SweepRunner {
 public:
  /// `jobs` worker threads; 0 means std::thread::hardware_concurrency().
  /// With jobs == 1 no threads are spawned and work runs inline.
  explicit SweepRunner(std::size_t jobs = 0);
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  std::size_t jobs() const noexcept { return jobs_; }

  /// Runs fn(i) for every i in [0, count), spread across the pool; blocks
  /// until all iterations finished. The first exception thrown by any
  /// iteration is rethrown on the calling thread (remaining iterations
  /// are drained, not cancelled mid-flight).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Ordered parallel map: out[i] = fn(i). T must be default-constructible.
  template <typename T, typename Fn>
  std::vector<T> map(std::size_t count, Fn&& fn) {
    std::vector<T> out(count);
    parallel_for(count, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Executes every trial and returns results in the order of `trials`.
  std::vector<RunResult> run(const std::vector<TrialSpec>& trials);

 private:
  void worker_loop();
  void drain_batch(std::uint64_t batch);

  std::size_t jobs_;
  std::vector<std::thread> workers_;

  // Current batch, guarded by mutex_ / signalled via cv_work_ and cv_done_.
  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* batch_fn_ = nullptr;
  std::size_t batch_count_ = 0;
  std::size_t next_index_ = 0;
  std::size_t remaining_ = 0;
  std::uint64_t batch_id_ = 0;
  std::exception_ptr first_error_;
  bool shutdown_ = false;
};

}  // namespace topkmon::exp
