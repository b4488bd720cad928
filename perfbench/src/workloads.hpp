// The benchmark's workloads: each one is a fully specified exp::Scenario
// (monitor, generated stream, network, size, validation, fault plan)
// built from the workload name, the seed and the steady step count.
// Why each workload exists is written down in perfbench/README.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.hpp"

namespace perfbench {

/// Seeds the steady repeats of every workload cycle over (the first is
/// the run's own seed; see derived_seed).
inline constexpr std::uint64_t kSeeds = 4;

struct Workload {
  std::string name;
  /// Steady observation steps of one run_scenario call. Fixed per
  /// workload (never derived from the time budget), so every counted
  /// metric of a (workload, seed) pair repeats exactly.
  std::uint64_t steps = 0;
  /// A wrong answer on any step fails the benchmark (exact workloads);
  /// otherwise wrong steps are a measured share (lossy delivery).
  bool exact = true;
  /// Seeds the set-up measurement averages setup_msgs over (the first
  /// kSeeds are the steady seeds).
  std::uint64_t setup_seeds = 1;
};

/// The j-th seed derived from `seed` (j = 0 is `seed` itself).
std::uint64_t derived_seed(std::uint64_t seed, std::uint64_t j);

/// Every workload, in the order BENCHMARK.json lists them.
const std::vector<Workload>& all_workloads();

/// The workload named `name`; throws std::invalid_argument if unknown.
const Workload& find_workload(const std::string& name);

/// The scenario one run of `w` executes. `steps` overrides w.steps (0 runs
/// construction and initialization only, the setup measurement).
topkmon::exp::Scenario make_scenario(const Workload& w, std::uint64_t seed,
                                     std::uint64_t steps);

}  // namespace perfbench
