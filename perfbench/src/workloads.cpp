#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

using topkmon::RunConfig;
using topkmon::StreamFamily;
using topkmon::exp::Scenario;

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = {
      // A drift_sharded set-up takes ~2.4 s, so it averages over its steady
      // seeds only; the others take under 3 ms.
      {"iid_contested", 2'000, true, 128},
      {"drift_sharded", 3'000, true, kSeeds},
      {"sched_churn", 3'000, false, 128},
  };
  return kAll;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t derived_seed(std::uint64_t seed, std::uint64_t j) {
  if (j == 0) return seed;
  std::uint64_t z = seed + j * 0x9e3779b97f4a7c15ull;  // splitmix64
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

/// Crash, recover and join events at fixed fractions of the run, so the
/// schedule stays inside the run whatever its length.
std::string churn_plan(std::uint64_t steps) {
  const auto at = [&](double f) {
    return std::to_string(std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(steps) * f)));
  };
  return "churn?crash=9@" + at(0.2) + ",recover=9@" + at(0.35) +
         ",join=+32@" + at(0.5) + ",crash=20@" + at(0.7) + ",recover=20@" +
         at(0.75);
}

}  // namespace

Scenario make_scenario(const Workload& w, std::uint64_t seed,
                       std::uint64_t steps) {
  Scenario sc;
  sc.seed = seed;
  sc.steps = steps;
  sc.workers = 1;
  // Wrong steps are counted by the benchmark, never thrown: an exact
  // workload with a wrong step still fails, after reporting it.
  sc.throw_on_error = false;
  if (w.name == "iid_contested") {
    sc.monitor = "topk_filter";
    sc.stream.family = StreamFamily::kIidUniform;
    sc.n = 256;
    sc.k = 8;
    sc.validation = RunConfig::Validation::kStrict;
  } else if (w.name == "drift_sharded") {
    sc.monitor = "topk_filter?nobeacon";
    sc.shards = 8;
    sc.with_stream_family("sparse?rate=0.01,inner=random_walk");
    sc.stream.walk.hi = 100'000'000;
    sc.stream.walk.max_step = 64;
    sc.n = std::size_t{1} << 17;
    sc.k = 32;
    sc.validation = RunConfig::Validation::kWeak;
  } else if (w.name == "sched_churn") {
    sc.monitor = "topk_filter";
    sc.stream.family = StreamFamily::kIidUniform;
    sc.n = 256;
    sc.k = 8;
    sc.with_network("delay=2,jitter=3,drop=0.001");
    // The plan is scaled to the workload's steady length, not to `steps`,
    // so a setup-only run provisions exactly what a full run does.
    sc.faults = churn_plan(w.steps);
    sc.validation = RunConfig::Validation::kWeak;
  } else {
    throw std::invalid_argument("unknown workload '" + w.name + "'");
  }
  return sc;
}

}  // namespace perfbench
