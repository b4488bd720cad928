// Property test for the equivalence checks themselves: they only prove
// equivalence if they would *fail* on an inequivalent port. The slack
// role port carries a test-only `?nudge=<v>` mutation knob that shifts
// every applied filter boundary by `v` value units — the classic
// off-by-one porting bug. The mutant must be flagged
//
//   * against the golden digest recorded from the lock-step oracle
//     (instant network), and
//   * against the clean native port under every network policy (where
//     no golden exists), by the full run comparison,
//
// pinning that the comparisons have teeth on each policy rather than
// vacuously passing on dimensions a policy happens not to exercise.
#include <gtest/gtest.h>

#include <string>

#include "role_port_harness.hpp"

namespace topkmon {
namespace {

using harness::digest;
using harness::first_difference;
using harness::golden_of;
using harness::golden_stream;
using harness::GoldenKey;
using harness::results_identical;
using harness::run_native;

// The golden reference run is slack on "dense_walk": a ±1 boundary error
// is only observable when values actually visit the integers next to a
// boundary. The default walk jumps ~128 transformed units per step and
// sails straight over a one-unit shift; this slow unit-step walk in a
// compressed range crawls *through* every boundary it crosses, so the
// off-by-one flips real filter decisions.
constexpr harness::Shape kShape{16, 4};
constexpr std::uint64_t kSeed = 5;
constexpr std::size_t kSteps = 600;

TEST(PortMutant, HarnessCatchesMutantAgainstLockstepOracle) {
  const auto& golden = golden_of("mutant");
  GoldenKey mutant = golden.key;
  mutant.spec = "slack?nudge=1";
  const std::string actual = digest(mutant);
  EXPECT_FALSE(first_difference(golden.line, actual).empty())
      << "an off-by-one boundary survived the golden comparison:\n  "
      << actual;
}

TEST(PortMutant, HarnessCatchesMutantOnEveryNetworkPolicy) {
  for (const std::string network :
       {"instant", "delay=2", "jitter=2", "drop=0.02"}) {
    SCOPED_TRACE(network);
    const auto clean =
        run_native("slack", golden_stream("dense_walk"), kShape, kSeed,
                   kSteps, RunConfig::Validation::kWeak, network);
    const auto mutant =
        run_native("slack?nudge=1", golden_stream("dense_walk"), kShape,
                   kSeed, kSteps, RunConfig::Validation::kWeak, network);
    EXPECT_FALSE(results_identical(clean, mutant))
        << "mutant indistinguishable from the clean port under " << network;
  }
}

TEST(PortMutant, CleanPortStillPassesTheSameComparison) {
  // Control arm: the exact comparison that catches the mutant must hold
  // for the unperturbed port, or the property above proves nothing.
  const auto& golden = golden_of("mutant");
  ASSERT_EQ(golden.key.spec, "slack");
  ASSERT_EQ(golden.key.n, kShape.n);
  ASSERT_EQ(golden.key.seed, kSeed);
  ASSERT_EQ(golden.key.steps, kSteps);
  const std::string actual = digest(golden.key);
  EXPECT_EQ(first_difference(golden.line, actual), "")
      << "  actual: " << actual;
}

}  // namespace
}  // namespace topkmon
