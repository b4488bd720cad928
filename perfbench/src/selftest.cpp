// Self-tests of the benchmark's own arithmetic (metrics.hpp). Built by
// perfbench/CMakeLists.txt and run by perfbench/run.py after every build;
// exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "metrics.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace perfbench;

void percentile_reports_its_evidence() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);  // 1..1000, shuffled below
  std::vector<double> shuffled;
  for (int i = 0; i < 1000; ++i) shuffled.push_back(v[(i * 617) % 1000]);

  const Percentile p99 = percentile(shuffled, 99);
  EXPECT(near(p99.value, 990.0));  // nearest rank ceil(0.99 * 1000) = 990
  EXPECT(p99.samples == 1000);
  EXPECT(p99.beyond == 10);  // 991..1000

  const Percentile p50 = percentile(shuffled, 50);
  EXPECT(near(p50.value, 500.0));
  EXPECT(p50.beyond == 500);

  // Ties: every sample equal to the percentile is not "beyond" it.
  const Percentile tie = percentile({5, 5, 5, 5, 9}, 50);
  EXPECT(near(tie.value, 5.0));
  EXPECT(tie.beyond == 1);

  // Small samples: p99 of 10 values is the maximum, nothing beyond.
  const Percentile small = percentile({3, 1, 2, 4, 5, 6, 7, 8, 9, 10}, 99);
  EXPECT(near(small.value, 10.0));
  EXPECT(small.beyond == 0);

  const Percentile empty = percentile({}, 99);
  EXPECT(empty.samples == 0 && near(empty.value, 0.0));
}

void tail_keeps_ten_samples_beyond() {
  std::vector<double> v;
  for (int i = 1; i <= 2000; ++i) v.push_back(i);
  const Tail t = tail_percentile(v, 10);
  EXPECT(near(t.p, 99.5));
  EXPECT(near(t.at.value, 1990.0));
  EXPECT(t.at.beyond == 10);
  EXPECT(t.at.samples == 2000);
  // 4000 samples: p99.75, still exactly ten beyond.
  v.clear();
  for (int i = 1; i <= 4000; ++i) v.push_back(i);
  const Tail t4 = tail_percentile(v, 10);
  EXPECT(near(t4.p, 99.75));
  EXPECT(t4.at.beyond == 10);
  // Too few samples: the maximum.
  const Tail small = tail_percentile({1, 2, 3}, 10);
  EXPECT(near(small.p, 100.0) && near(small.at.value, 3.0));
}

void median_uses_midpoint_for_even_counts() {
  EXPECT(near(median({3, 1, 2}), 2.0));
  EXPECT(near(median({4, 1, 3, 2}), 2.5));
  EXPECT(near(median({}), 0.0));
}

void self_time_subtracts_covered_child_time() {
  // No children: all of it is self time.
  EXPECT(self_time({0, 100}, {}) == 100);
  // Disjoint children.
  EXPECT(self_time({0, 100}, {{10, 20}, {50, 80}}) == 60);
  // Overlapping children count their union once.
  EXPECT(self_time({0, 100}, {{10, 40}, {30, 60}}) == 50);
  // A child nested in another child.
  EXPECT(self_time({0, 100}, {{10, 60}, {20, 30}}) == 50);
  // Children sticking out of the parent are clipped to it.
  EXPECT(self_time({100, 200}, {{50, 120}, {190, 250}}) == 70);
  // Order of the children does not matter.
  EXPECT(self_time({0, 100}, {{50, 80}, {10, 20}}) == 60);
}

void timer_cost_is_subtracted_per_call() {
  const TimerCost cost{40.0, 15.0, 4.0};
  // 1000 calls, every one timed, measured at 65'000 ns: 15 ns of each is
  // the clock.
  EXPECT(near(estimated_children(65'000, 1000, 1000, cost), 50'000));
  // 1 in 10 timed: the corrected mean (65 - 15 = 50 ns) scales to all calls.
  EXPECT(near(estimated_children(6'500, 100, 1000, cost), 50'000));
  // Their parent paid the full pair per timed call and the bare
  // bookkeeping per untimed one.
  EXPECT(near(corrected_parent(200'000, 100, 900, cost), 200'000 - 4'000 - 3'600));
  // Self time of the parent = corrected parent - estimated children.
  EXPECT(near(corrected_parent(200'000, 1000, 0, cost) -
                  estimated_children(65'000, 1000, 1000, cost),
              110'000));
  // Never negative when the calibration overestimates, and nothing
  // timed means nothing estimated.
  EXPECT(near(estimated_children(10, 1000, 1000, cost), 0.0));
  EXPECT(near(corrected_parent(10, 1000, 0, cost), 0.0));
  EXPECT(near(estimated_children(0, 0, 1000, cost), 0.0));
}

void run_rates_use_their_bases() {
  RunTotals r;
  r.steps = 999;      // steps 1..999 steady; 1000 executed with step 0
  r.msgs = 5'000;     // whole run, setup included
  r.allocs = 2'500;   // whole run
  r.wall_s = 2.5;
  r.init_s = 0.5;
  const RunRates s = run_rates(r);
  EXPECT(near(s.steps_per_s, 499.5));     // 999 steady steps / 2.0 steady s
  EXPECT(near(s.msgs_per_step, 5.0));     // 5000 msgs / 1000 executed steps
  EXPECT(near(s.host_ns_per_msg, 5e5));   // 2.5e9 wall ns / 5000 msgs
  EXPECT(near(s.allocs_per_step, 2.5));   // 2500 allocs / 1000 executed steps
  // Empty bases give 0, not inf or NaN.
  RunTotals idle;
  idle.wall_s = 1.0;
  idle.init_s = 1.0;
  const RunRates z = run_rates(idle);
  EXPECT(near(z.steps_per_s, 0.0) && near(z.msgs_per_step, 0.0) &&
         near(z.host_ns_per_msg, 0.0));
  EXPECT(near(ratio(3, 0), 0.0));
  EXPECT(near(ratio(3, 4), 0.75));
}

void seeds_weigh_the_same_whatever_their_repeats() {
  // Seed 0 ran three times (runs 0, 2, 4), seed 1 twice (runs 1, 3):
  // means 11 and 100, midpoint 55.5, not the mean 46.6 of all five runs.
  EXPECT(near(median_of_seed_means({10, 100, 20, 100, 3}, 2), 55.5));
  // A single run per seed is that run.
  EXPECT(near(median_of_seed_means({1, 2, 3, 6}, 4), 2.5));
  // Seeds that never ran are left out, and no run at all gives 0.
  EXPECT(near(median_of_seed_means({4, 8}, 4), 6.0));
  EXPECT(near(median_of_seed_means({}, 4), 0.0));
}

void repeats_average_and_seeds_take_the_median() {
  // One seed, repeats in a slow (100) and a fast (200) cluster: moving
  // one repeat of five across moves the result by a fifth of the gap,
  // where a median would jump the whole gap.
  EXPECT(near(median_of_seed_means({100, 100, 100, 200, 200}, 1), 140.0));
  EXPECT(near(median_of_seed_means({100, 100, 200, 200, 200}, 1), 160.0));
  // Four seeds, one ten times the others: it does not move the result.
  EXPECT(near(median_of_seed_means({5, 5.2, 50, 5.1}, 4), 5.15));
}

}  // namespace

int main() {
  percentile_reports_its_evidence();
  tail_keeps_ten_samples_beyond();
  median_uses_midpoint_for_even_counts();
  self_time_subtracts_covered_child_time();
  timer_cost_is_subtracted_per_call();
  run_rates_use_their_bases();
  seeds_weigh_the_same_whatever_their_repeats();
  repeats_average_and_seeds_take_the_median();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench selftest: ok\n");
  return EXIT_SUCCESS;
}
