// The load-bearing guarantee of the role-separated redesign: under the
// instant NetworkSpec, the native event-driven implementations reproduce
// what their lock-step twins did — same messages of every kind in every
// step, same answers, same algorithm-event counters. The
// twins are retired; their runs over this grid are frozen as golden
// digests (tests/data/role_port_goldens.txt, recorded only where twin and
// port agreed), and every line here was an exact run: no error step.
#include <gtest/gtest.h>

#include <string>

#include "role_port_harness.hpp"

namespace topkmon {
namespace {

using harness::expect_goldens;
using harness::run_native;

TEST(RoleEquivalence, FilterMonitorMatchesLockstepAcrossShapes) {
  // Shapes {8,2}, {16,4}, {16,1}, {16,15}, {5,5} × random_walk,
  // iid_uniform, rotating_max, bursty × seeds {1, 7}, 300 steps.
  expect_goldens("filter_shapes", /*exact=*/true);
}

TEST(RoleEquivalence, FilterMonitorMatchesLockstepWithBeaconSuppression) {
  expect_goldens("filter_nobeacon", /*exact=*/true);
}

TEST(RoleEquivalence, NaiveVariantsMatchLockstep) {
  expect_goldens("naive_variants", /*exact=*/true);
}

TEST(RoleEquivalence, FormerAdapterMonitorsNowRunNativeAndMatch) {
  // recompute, slack, dominance, ordered and approx?eps=64 — the
  // monitors that once bridged through the lock-step adapter.
  expect_goldens("former_adapter", /*exact=*/true);
}

TEST(RoleEquivalence, RecomputeRunsNativelyOnLossyNetworks) {
  // A delayed network must not reject recompute, and it answers every
  // step.
  const auto r =
      run_native("recompute", "random_walk", {8, 2}, 1, 60,
                 RunConfig::Validation::kWeak, "delay=1");
  EXPECT_EQ(r.steps_executed, 61u);
  EXPECT_EQ(r.monitor_name, "recompute");
  EXPECT_GT(r.comm.total(), 0u);
}

}  // namespace
}  // namespace topkmon
