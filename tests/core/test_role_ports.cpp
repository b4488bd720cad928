// Every native role port against its frozen lock-step goldens: slack,
// dominance, approx, multi_k, ordered, recompute and the filter/naive
// ports replay the stream-family × shape × seed grid their lock-step
// twins were recorded on (tests/data/role_port_goldens.txt) and must
// reproduce every digest — messages, counters, answers, errors and, for
// the parity lines, the coin flips. The ports then run green under
// scheduled networks (delay / jitter / drop), byte-identically under
// --workers 8, and through a light e19-style churn plan.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "role_port_harness.hpp"

namespace topkmon {
namespace {

using harness::expect_goldens;
using harness::expect_identical;
using harness::results_identical;
using harness::run_native;

// ---------------------------------------------------------------------------
// Instant-network equivalence with the recorded twins, port by port
// ---------------------------------------------------------------------------

TEST(RolePorts, SlackMatchesLockstepAcrossGrid) {
  expect_goldens("slack_grid");
}

TEST(RolePorts, DominanceMatchesLockstepAcrossGrid) {
  expect_goldens("dominance_grid");
}

TEST(RolePorts, ApproxMatchesLockstepAcrossGrid) {
  expect_goldens("approx_grid");
}

TEST(RolePorts, MultiKMatchesLockstepAcrossGrid) {
  expect_goldens("multik_grid");
}

TEST(RolePorts, OrderedMatchesLockstepAcrossGrid) {
  expect_goldens("ordered_grid");
}

TEST(RolePorts, RecomputeMatchesLockstepAcrossGrid) {
  // recompute and recompute?nobeacon over the standard shapes plus
  // k == n and k == 1.
  expect_goldens("recompute_grid", /*exact=*/true);
}

TEST(RolePorts, ExistingPortsStillMatchThroughSharedHarness) {
  expect_goldens("existing_grid");
}

TEST(RolePorts, DegenerateShapesMatch) {
  // k == n (no outsiders), k == 1 (no order structure to maintain), and
  // tiny n exercise every port's boundary-free and single-band paths.
  expect_goldens("degenerate");
}

TEST(RolePorts, BeaconSuppressionVariantsMatch) {
  expect_goldens("nobeacon_grid");
}

// ---------------------------------------------------------------------------
// Coin-flip identity: per-step answers (rank order included) + one draw
// from every node RNG and the coordinator RNG
// ---------------------------------------------------------------------------

TEST(RolePorts, TwinDriveProvesAnswerAndRngParity) { expect_goldens("parity"); }

// ---------------------------------------------------------------------------
// Scheduled networks: the ports must run (and stay live) once messages
// are delayed, jittered, and dropped — the regime the recorded twins
// never entered.
// ---------------------------------------------------------------------------

const std::vector<std::string>& new_port_specs() {
  // multi_k's answer is the top-k of its *smallest* monitored k, so the
  // scheduled-network / churn scenarios (validated against the scenario
  // k) pin ks to start at the scenario's k = 4.
  static const std::vector<std::string> specs{
      "slack",   "dominance", "approx?eps=64", "multi_k?ks=4+8",
      "ordered", "recompute"};
  return specs;
}

TEST(RolePorts, NewPortsRunGreenOnScheduledNetworks) {
  for (const std::string& spec : new_port_specs()) {
    for (const std::string network : {"delay=2", "jitter=2", "drop=0.02"}) {
      SCOPED_TRACE(spec + " / " + network);
      const auto r = run_native(spec, "random_walk", {16, 4}, 3, 300,
                                RunConfig::Validation::kWeak, network);
      EXPECT_EQ(r.steps_executed, 301u);
      EXPECT_GT(r.comm.total(), 0u);
      // Delay and jitter only lag the answer; the monitor must keep
      // converging rather than wedge into a permanently wrong state.
      EXPECT_LT(r.error_rate(), 0.9) << "monitor wedged under " << network;
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel tick loop: --workers 8 must be byte-identical to serial
// ---------------------------------------------------------------------------

TEST(RolePorts, NewPortsWorkersByteIdenticalToSerial) {
  for (const std::string& spec : new_port_specs()) {
    SCOPED_TRACE(spec);
    const auto serial = run_native(spec, "random_walk", {24, 5}, 13, 200);
    const auto parallel =
        run_native(spec, "random_walk", {24, 5}, 13, 200,
                   RunConfig::Validation::kWeak, "instant", /*workers=*/8);
    expect_identical(serial, parallel, spec + " workers=8");
    EXPECT_TRUE(results_identical(serial, parallel));
  }
}

// ---------------------------------------------------------------------------
// Fault plans: a light e19-style churn plan (crash, outage, recovery)
// must complete with the answer re-converging after the heal.
// ---------------------------------------------------------------------------

TEST(RolePorts, NewPortsSurviveLightChurn) {
  for (const std::string& spec : new_port_specs()) {
    SCOPED_TRACE(spec);
    const auto r =
        run_native(spec, "random_walk", {16, 4}, 11, 300,
                   RunConfig::Validation::kWeak, "instant", /*workers=*/1,
                   /*faults=*/"churn?crash=1@80,recover=1@160");
    EXPECT_EQ(r.steps_executed, 301u);
    // Once the crashed node has rejoined and re-synced, the answer must
    // go clean again: no errors over the final third of the run.
    EXPECT_EQ(r.error_steps_since(220), 0u) << "never re-converged";
  }
}

}  // namespace
}  // namespace topkmon
