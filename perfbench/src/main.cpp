// perfbench: the repository benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit TEXT] [--trace-dir DIR]
//
// --trace 0 measures the end-to-end metrics through exp::run_scenario
// with nothing in the loop but a per-step timestamp; --trace 1 measures
// the per-layer metrics with the traced replica (traced.hpp). Both run a
// closed loop on one thread: each step starts once the previous one has
// settled. Every metric is printed as "name value unit"; the last line
// is one JSON object {correct, attempted, failed, metrics}. Any failed
// check prints the reason to stderr and exits 1 without that line.
#include <unistd.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "measure.hpp"
#include "metrics.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_dir;
};

struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

/// Metrics in report order, each with its unit.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    rows_.push_back({name, value, unit, note});
  }
  void print(std::ostream& out) const {
    for (const Row& r : rows_) {
      out << r.name << " " << fmt(r.value) << " " << r.unit;
      if (!r.note.empty()) out << "  (" << r.note << ")";
      out << "\n";
    }
  }
  /// The metrics object of the result line, restricted to `names`.
  std::string json(const std::vector<std::string>& names) const {
    std::ostringstream out;
    out << "{";
    bool first = true;
    for (const std::string& name : names) {
      const Row* row = nullptr;
      for (const Row& r : rows_) {
        if (r.name == name) row = &r;
      }
      if (row == nullptr) throw std::logic_error("metric not measured: " + name);
      out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
          << fmt(row->value) << ", \"unit\": \"" << row->unit << "\"}";
      first = false;
    }
    out << "}";
    return out.str();
  }

 private:
  static std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Row> rows_;
};

const std::vector<std::string> kEndToEnd = {
    "steps_per_s",    "step_p50_us",     "step_p99_us",
    "setup_s",        "msgs_per_step",   "setup_msgs",
    "exact_step_ratio", "allocs_per_step", "peak_rss_mib"};

const std::vector<std::string> kPerLayer = {
    "streams.advance_ns",
    "streams.changed_per_step",
    "observe.set_value_ns",
    "truth.update_ns",
    "truth.check_ns",
    "truth.full_rebuilds_per_step",
    "truth.boundary_rescans_per_step",
    "driver.step_ns",
    "driver.self_ns",
    "driver.ticks_per_step",
    "driver.allocs_per_step",
    "net.upstream_per_step",
    "net.unicast_per_step",
    "net.broadcast_per_step",
    "net.dropped_per_step",
    "node.callbacks_per_msg",
    "node.useful_ratio",
    "node.on_message_ns",
    "node.on_message_calls",
    "node.on_observe_ns",
    "node.on_observe_calls",
    "node.on_timer_ns",
    "node.on_timer_calls",
    "node.on_control_ns",
    "node.on_control_calls",
    "coord.on_message_ns",
    "coord.on_message_calls",
    "coord.on_timer_ns",
    "coord.on_timer_calls",
    "coord.step_hooks_ns",
    "monitor.protocol_runs_per_step",
    "monitor.violations_per_step",
    "shard.build_s",
    "shard.initialize_s",
    "shard.setup_msgs",
    "shard.setup_filter_resets",
    "root.msgs_per_step",
    "faults.resyncs",
    "faults.resync_retries",
    "faults.max_recovery_ticks",
    "trace.overhead_pct",
    "trace.timer_pair_ns",
    "trace.corrected_step_gap_pct",
    "trace.layers_vs_untraced_pct",
    "harness.self_ns",
};

/// Peak resident set of this process image. VmHWM rather than
/// getrusage's ru_maxrss, which Linux carries across execve from the
/// launching process.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
    in.ignore(1 << 12, '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_facts(const Options& o, const Workload& w) {
  std::cout << "host.nproc " << sysconf(_SC_NPROCESSORS_ONLN) << "\n"
            << "host.cpu " << cpu_model() << "\n"
            << "build.compiler " << PERFBENCH_COMPILER << "\n"
            << "build.type " << PERFBENCH_BUILD_TYPE << "\n"
            << "build.alloc_hook "
            << (topkmon::bench::alloc_hook_enabled() ? "on" : "off") << "\n"
            << "build.commit " << o.commit << "\n"
            << "run.workload " << w.name << " seed " << o.seed << " steps "
            << w.steps << " seconds " << o.seconds << " trace "
            << (o.trace ? 1 : 0) << "\n";
}

double elapsed_s(std::int64_t start) {
  return static_cast<double>(now_ns() - start) / 1e9;
}

/// True while another run of expected length `est_s` still fits the
/// budget; `min_runs` always run.
bool another_run(std::size_t done, std::size_t min_runs, double used_s,
                 double est_s, double budget_s) {
  return done < min_runs || used_s + est_s <= budget_s;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics through run_scenario
// ---------------------------------------------------------------------------

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

RunTotals totals_of(const UntracedRun& r, const Workload& w) {
  RunTotals t;
  t.steps = w.steps;
  t.msgs = r.fp.total_msgs();
  t.allocs = r.allocs;
  t.wall_s = r.result.wall_seconds;
  t.init_s = r.result.init_seconds;
  return t;
}

/// What the end-to-end report keeps of one steady repeat. Step samples
/// are reduced as soon as the repeat ends, so peak memory does not grow
/// with the number of repeats that fit the budget.
struct Repeat {
  Fingerprint fp;
  std::uint64_t allocs = 0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t max_recovery = 0;
  RunRates rates;
  double p50 = 0.0;
  Tail tail;
  double p99 = 0.0;
  double wall_p99 = 0.0;
  /// HostIndex next to the repeat: the mean of one sample just before
  /// and one just after it.
  double host_index = 1.0;
};

Repeat summarize(const UntracedRun& r, const Workload& w, double host_index) {
  Repeat out;
  out.host_index = host_index;
  out.fp = r.fp;
  out.allocs = r.allocs;
  out.steady_allocs = r.steady_allocs;
  out.max_recovery = r.result.max_recovery_ticks();
  out.rates = run_rates(totals_of(r, w));
  // Percentiles per repeat, then over repeats: a slow patch of the
  // shared host that covers one repeat does not move them.
  out.p50 = percentile(r.step_us, 50).value;
  out.tail = tail_percentile(r.step_us, 10);
  out.p99 = percentile(r.step_us, 99).value;
  out.wall_p99 = percentile(r.step_wall_us, 99).value;
  return out;
}

Outcome end_to_end(const Options& o, const Workload& w, Report& rep) {
  const std::int64_t start = now_ns();

  // Every steady repeat runs at the workload's fixed length, and the
  // repeats cycle over kSeeds seeds derived from --seed: how a run
  // behaves depends on its inputs (a steady-phase shard renegotiation
  // happens on some drift_sharded seeds and not on others), so every
  // result averages over several. The first seed always runs twice, and
  // repeats of a seed must reproduce its fingerprint. Every figure is the
  // median over the seeds of each seed's mean over its repeats
  // (median_of_seed_means), so an extra repeat never changes how the
  // seeds weigh. A HostIndex sample just before and just after each
  // repeat gives the host speed the repeat ran at.
  //
  // Before each repeat comes a batch of setup-only runs (construction and
  // time-0 initialization) that walks round robin through w.setup_seeds
  // seeds. Spread over the whole run, they sample the host as the repeats
  // do: a sub-millisecond set-up timed in one burst reads whatever speed
  // the shared host had in that instant. The batch is sized so that the
  // minimum number of repeats covers every set-up seed and revisits the
  // first; a revisited seed must repeat its count. setup_msgs is the mean
  // over the set-up seeds, since the initial selection's cost swings with
  // the seed. Each steady repeat adds its own set-up to the setup_s
  // samples.
  const std::size_t min_repeats = kSeeds + 1;
  const std::uint64_t batch = w.setup_seeds / min_repeats + 1;
  std::vector<Fingerprint> setup_fp;
  std::uint64_t setup_runs = 0;
  std::vector<double> setup_s;
  std::vector<Repeat> runs;
  std::vector<topkmon::RunResult> first;  // the first repeat of each seed
  std::uint64_t attempted = 0;
  std::vector<double> round_s;
  HostIndex host;
  while (another_run(runs.size(), min_repeats, elapsed_s(start), median(round_s),
                     o.seconds)) {
    const std::int64_t t0 = now_ns();
    for (std::uint64_t b = 0; b < batch; ++b, ++setup_runs) {
      const std::uint64_t j = setup_runs % w.setup_seeds;
      const UntracedRun r = run_untraced(w, derived_seed(o.seed, j), 0);
      if (w.exact) require(r.result.error_steps == 0, "wrong answer at step 0");
      setup_s.push_back(r.result.init_seconds);
      if (j == setup_fp.size()) {
        setup_fp.push_back(r.fp);
      } else {
        require(r.fp == setup_fp[j], "setup fingerprint differs between repeats: " +
                                         r.fp.describe() + " vs " +
                                         setup_fp[j].describe());
      }
    }

    const std::size_t i = runs.size();
    const double index_before = host.sample();
    const UntracedRun r = run_untraced(w, derived_seed(o.seed, i % kSeeds), w.steps);
    const double host_index = 0.5 * (index_before + host.sample());
    if (w.exact) {
      require(r.result.error_steps == 0,
              "wrong answer on an exact workload at step " +
                  std::to_string(*r.result.first_error_step));
    }
    setup_s.push_back(r.result.init_seconds);
    attempted += r.result.steps_executed;
    runs.push_back(summarize(r, w, host_index));
    if (i < kSeeds) first.push_back(r.result);
    const Repeat& now = runs.back();
    const Repeat& was = runs[i % kSeeds];
    require(now.fp == was.fp, "fingerprint differs between repeats: " +
                                  now.fp.describe() + " vs " + was.fp.describe());
    require(now.allocs == was.allocs && now.steady_allocs == was.steady_allocs,
            "allocation count differs between repeats");
    require(now.max_recovery == was.max_recovery,
            "recovery window differs between repeats");
    round_s.push_back(elapsed_s(t0));
  }
  require(setup_fp.size() == w.setup_seeds && setup_runs > w.setup_seeds,
          "set-up batches missed a seed or its repeat");

  const auto over_seeds = [&](auto field) {
    std::vector<double> per_run;
    for (const Repeat& r : runs) per_run.push_back(field(r));
    return median_of_seed_means(per_run, kSeeds);
  };

  // Counts are exact per seed, so over_seeds gives their median over the
  // seeds; the pooled totals below are printed with them.
  std::uint64_t executed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t max_recovery = 0;
  std::size_t fault_events = 0;
  for (std::size_t j = 0; j < kSeeds; ++j) {
    executed += first[j].steps_executed;
    wrong += first[j].error_steps;
    steady_allocs += runs[j].steady_allocs;
    max_recovery = std::max(max_recovery, runs[j].max_recovery);
    fault_events += first[j].recovery_ticks.size();
  }
  double setup_msgs = 0.0;
  for (const Fingerprint& fp : setup_fp) setup_msgs += static_cast<double>(fp.total_msgs());
  setup_msgs /= static_cast<double>(setup_fp.size());

  const std::string seeds_note = " over " + std::to_string(kSeeds) + " seeds";
  const std::string repeats = "median over " + std::to_string(kSeeds) +
                              " seeds of the mean of " + std::to_string(runs.size()) +
                              " runs of " + std::to_string(w.steps) + " steps";

  // Timings at nominal host speed (HostIndex), each with its raw value.
  const double index = over_seeds([](const Repeat& r) { return r.host_index; });
  const auto timing = [&](const std::string& name, const std::string& unit, auto raw,
                          bool rate, const std::string& note) {
    const double raw_value = over_seeds(raw);
    const double value = over_seeds([&](const Repeat& r) {
      return rate ? raw(r) * r.host_index : raw(r) / r.host_index;
    });
    rep.add(name, value, unit, "at nominal host speed; " + repeats + note);
    rep.add("raw." + name, raw_value, unit, "as measured");
  };
  rep.add("host.index", index, "ratio",
          "reference job time / nominal, next to each repeat; " + repeats);
  timing("steps_per_s", "1/s", [](const Repeat& r) { return r.rates.steps_per_s; }, true,
         "");
  timing("step_p50_us", "us", [](const Repeat& r) { return r.p50; }, false,
         ", thread CPU time");
  // Upper percentiles stay as measured: their heavy steps do not slow
  // with the reference job, and dividing the tail by the index doubled
  // its spread between runs on sched_churn (README, "Bounds"). p99 keeps
  // at least 20 steps beyond it in every repeat; the tail, with 10, is
  // printed too.
  rep.add("step_p99_us", over_seeds([](const Repeat& r) { return r.p99; }), "us",
          "as measured; " + repeats + ", thread CPU time");
  char tail_note[64];
  std::snprintf(tail_note, sizeof tail_note, ", p%.2f: 10 steps beyond",
                runs.front().tail.p);
  rep.add("step_tail_us", over_seeds([](const Repeat& r) { return r.tail.at.value; }),
          "us", "as measured; " + repeats + tail_note + ", thread CPU time");
  rep.add("step_p99_wall_us", over_seeds([](const Repeat& r) { return r.wall_p99; }),
          "us", "p99 in wall time, preemption included");
  rep.add("setup_s", median(setup_s), "s",
          "median of " + std::to_string(setup_s.size()) + " set-ups");
  rep.add("msgs_per_step",
          over_seeds([](const Repeat& r) { return r.rates.msgs_per_step; }), "msgs",
          "charged, all tiers, setup included, over " +
              std::to_string(w.steps + 1) + " steps, median" + seeds_note);
  rep.add("setup_msgs", setup_msgs, "msgs",
          "mean over " + std::to_string(w.setup_seeds) + " set-up seeds");
  rep.add("host_ns_per_msg",
          over_seeds([](const Repeat& r) { return r.rates.host_ns_per_msg; }), "ns",
          "whole run, " + repeats);
  rep.add("exact_step_ratio",
          ratio(static_cast<double>(executed - wrong), static_cast<double>(executed)),
          "ratio", std::to_string(executed - wrong) + " of " +
                       std::to_string(executed) + " steps" + seeds_note);
  rep.add("allocs_per_step",
          over_seeds([](const Repeat& r) { return r.rates.allocs_per_step; }), "allocs",
          "whole run_scenario call over " + std::to_string(w.steps + 1) +
              " steps, median" + seeds_note + "; " + std::to_string(steady_allocs) +
              " in steady steps, summed" + seeds_note);
  rep.add("peak_rss_mib", peak_rss_mib(), "MiB");
  rep.add("wrong_step_ratio",
          ratio(static_cast<double>(wrong), static_cast<double>(executed)), "ratio",
          std::to_string(wrong) + " of " + std::to_string(executed) + seeds_note);
  rep.add("max_recovery_ticks", static_cast<double>(max_recovery), "ticks",
          std::to_string(fault_events) + " fault events" + seeds_note);
  for (std::size_t j = 0; j < kSeeds; ++j) {
    std::cout << "fingerprint seed " << derived_seed(o.seed, j) << " "
              << runs[j].fp.describe() << "\n";
  }
  std::cout << "runs.steps_per_s";
  for (const Repeat& r : runs) std::cout << " " << static_cast<long>(r.rates.steps_per_s);
  std::cout << "\n";
  return {attempted, 0};
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics from the traced replica
// ---------------------------------------------------------------------------

void write_spans(const std::string& dir, const Workload& w,
                 const Options& o, const std::vector<Span>& spans) {
  if (dir.empty() || spans.empty()) return;
  const std::string path = dir + "/" + w.name + ".spans.json";
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::int64_t t0 = spans.front().start;
  out << "{\"workload\": \"" << w.name << "\", \"seed\": " << o.seed
      << ", \"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\"], "
         "\"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "[\"" << s.name << "\", " << s.start - t0
        << ", " << s.end - t0 << ", " << s.parent << "]";
  }
  out << "]}\n";
  std::cout << "trace.spans_file " << path << " (" << spans.size()
            << " spans)\n";
}

/// Median over ledgers of `field(L)`.
template <typename F>
double median_of(const std::vector<Ledger>& set, F field) {
  std::vector<double> v;
  for (const Ledger& L : set) v.push_back(field(L));
  return median(std::move(v));
}

/// One callback-level ledger with its instrumentation removed: per-kind
/// callback time, the driver step around them, and what is left of the
/// step once the callbacks are taken out (tick scan + transport). All ns
/// over the whole steady phase.
struct CorrectedCallbacks {
  std::array<double, kNodeKinds> node{};
  std::array<double, kCoordKinds> coord{};
  double node_total = 0.0;
  double driver_step = 0.0;
  double driver_self = 0.0;
};

CorrectedCallbacks correct(const Ledger& L, const TimerCost& cost) {
  CorrectedCallbacks c;
  double all = 0.0;
  for (int k = 0; k < kNodeKinds; ++k) {
    const CallbackTotals& t = L.node[k];
    c.node[k] = estimated_children(t.ns, t.timed, t.calls, cost);
    c.node_total += c.node[k];
  }
  all += c.node_total;
  for (int k = 0; k < kCoordKinds; ++k) {
    const CallbackTotals& t = L.coord[k];
    c.coord[k] = estimated_children(t.ns, t.timed, t.calls, cost);
    all += c.coord[k];
  }
  c.driver_step = corrected_parent(L.driver_ns, L.timed_callbacks(),
                                   L.untimed_callbacks(), cost);
  c.driver_self = c.driver_step - all;
  return c;
}

/// Mean self time of the kept step spans: each step span minus the layer
/// spans under it (the replica loop's own glue).
double step_self_ns(const std::vector<Span>& spans) {
  double total = 0.0;
  std::size_t steps = 0;
  for (std::size_t i = 0; i < spans.size();) {
    std::vector<Interval> children;
    std::size_t j = i + 1;
    for (; j < spans.size() && spans[j].parent == static_cast<std::int32_t>(i); ++j) {
      children.push_back({spans[j].start, spans[j].end});
    }
    total += static_cast<double>(self_time({spans[i].start, spans[i].end}, children));
    ++steps;
    i = j;
  }
  return ratio(total, static_cast<double>(steps));
}

Outcome per_layer(const Options& o, const Workload& w, Report& rep) {
  const std::int64_t start = now_ns();
  const TimerCost cost = calibrate_callback_timer();
  const bool sharded = make_scenario(w, o.seed, 0).shards > 1;

  // Rounds of: untraced run_scenario, span-level replica, callback-level
  // replica (monolithic deployments only), until the budget.
  std::vector<UntracedRun> plain;
  std::vector<Ledger> spans_runs;
  std::vector<Ledger> cb_runs;
  std::vector<double> round_s;
  while (another_run(round_s.size(), 1, elapsed_s(start), median(round_s),
                     o.seconds)) {
    const std::int64_t t0 = now_ns();
    plain.push_back(run_untraced(w, o.seed, w.steps));
    spans_runs.push_back(run_traced(w, o.seed, TraceLevel::kSpans,
                                    /*keep_spans=*/spans_runs.empty()));
    if (!sharded) {
      cb_runs.push_back(run_traced(w, o.seed, TraceLevel::kCallbacks, false));
    }
    round_s.push_back(elapsed_s(t0));
  }

  const Fingerprint& fp = plain[0].fp;
  for (const UntracedRun& r : plain) {
    require(r.fp == fp, "untraced fingerprint differs between repeats");
  }
  for (const auto* set : {&spans_runs, &cb_runs}) {
    for (const Ledger& L : *set) {
      require(L.fp == fp, "traced fingerprint differs from run_scenario's: " +
                              L.fp.describe() + " vs " + fp.describe());
      require(L.counts() == set->front().counts(),
              "traced counts differ between repeats");
    }
  }
  if (w.exact) require(fp.wrong_steps == 0, "wrong answer on an exact workload");
  const Ledger& sp = spans_runs.front();
  require(sp.max_recovery_ticks == plain[0].result.max_recovery_ticks(),
          "traced recovery window differs from run_scenario's");

  const double S = static_cast<double>(w.steps);
  const auto per_step = [&](auto field) { return median_of(spans_runs, field) / S; };
  const auto count = [&](std::uint64_t c) { return static_cast<double>(c) / S; };

  // Span level.
  const double streams_ns = per_step([](const Ledger& L) { return L.streams_ns; });
  const double set_value_ns = per_step([](const Ledger& L) { return L.set_value_ns; });
  const double truth_update_ns = per_step([](const Ledger& L) { return L.truth_update_ns; });
  const double faults_ns = per_step([](const Ledger& L) { return L.faults_ns; });
  const double driver_ns = per_step([](const Ledger& L) { return L.driver_ns; });
  const double check_ns = per_step([](const Ledger& L) { return L.check_ns; });
  rep.add("streams.advance_ns", streams_ns, "ns");
  rep.add("streams.changed_per_step", count(sp.changed), "nodes");
  rep.add("observe.set_value_ns", set_value_ns, "ns");
  rep.add("truth.update_ns", truth_update_ns, "ns");
  rep.add("truth.check_ns", check_ns, "ns");
  rep.add("truth.full_rebuilds_per_step", count(sp.truth_full_rebuilds), "count");
  rep.add("truth.boundary_rescans_per_step", count(sp.truth_boundary_rescans), "count");
  rep.add("driver.step_ns", driver_ns, "ns", "step-level spans only");
  rep.add("driver.ticks_per_step", count(sp.ticks), "ticks");
  rep.add("driver.allocs_per_step", count(sp.driver_allocs), "allocs");
  const std::uint64_t msgs = sp.upstream + sp.unicast + sp.broadcast;
  rep.add("net.upstream_per_step", count(sp.upstream), "msgs");
  rep.add("net.unicast_per_step", count(sp.unicast), "msgs");
  rep.add("net.broadcast_per_step", count(sp.broadcast), "msgs");
  rep.add("net.dropped_per_step", count(sp.dropped), "deliveries");
  rep.add("monitor.protocol_runs_per_step", count(sp.protocol_runs), "count");
  rep.add("monitor.violations_per_step", count(sp.violations), "count");
  rep.add("shard.build_s", median_of(spans_runs, [](const Ledger& L) { return L.build_s; }), "s");
  rep.add("shard.initialize_s",
          median_of(spans_runs, [](const Ledger& L) { return L.initialize_s; }), "s");
  rep.add("shard.setup_msgs", static_cast<double>(sp.setup_msgs), "msgs");
  rep.add("shard.setup_filter_resets", static_cast<double>(sp.setup_filter_resets), "count");
  rep.add("root.msgs_per_step", count(sp.root_msgs), "msgs");
  rep.add("faults.resyncs", static_cast<double>(sp.resyncs), "count");
  rep.add("faults.resync_retries", static_cast<double>(sp.resync_retries), "count");
  rep.add("faults.max_recovery_ticks", static_cast<double>(sp.max_recovery_ticks), "ticks");

  // Callback level, with the instrumentation taken out (all zero on a
  // sharded deployment, whose roles the decorators cannot reach).
  std::vector<CorrectedCallbacks> corr;
  for (const Ledger& L : cb_runs) corr.push_back(correct(L, cost));
  const auto cb_per_step = [&](auto field) {
    std::vector<double> v;
    for (const CorrectedCallbacks& c : corr) v.push_back(field(c) / S);
    return median(std::move(v));
  };
  const Ledger cb = cb_runs.empty() ? Ledger{} : cb_runs.front();
  const std::pair<const char*, NodeKind> node_kinds[] = {
      {"node.on_message", kNodeMessage}, {"node.on_observe", kNodeObserve},
      {"node.on_timer", kNodeTimer}, {"node.on_control", kNodeControl}};
  for (const auto& [name, kind] : node_kinds) {
    rep.add(std::string(name) + "_ns",
            cb_per_step([kind](const CorrectedCallbacks& c) { return c.node[kind]; }), "ns");
    rep.add(std::string(name) + "_calls", count(cb.node[kind].calls), "calls");
  }
  const std::pair<const char*, CoordKind> coord_kinds[] = {
      {"coord.on_message", kCoordMessage}, {"coord.on_timer", kCoordTimer}};
  for (const auto& [name, kind] : coord_kinds) {
    rep.add(std::string(name) + "_ns",
            cb_per_step([kind](const CorrectedCallbacks& c) { return c.coord[kind]; }), "ns");
    rep.add(std::string(name) + "_calls", count(cb.coord[kind].calls), "calls");
  }
  rep.add("coord.step_hooks_ns",
          cb_per_step([](const CorrectedCallbacks& c) { return c.coord[kCoordStepHooks]; }),
          "ns");
  std::uint64_t node_calls = 0;
  std::uint64_t node_useful = 0;
  for (const CallbackTotals& k : cb.node) {
    node_calls += k.calls;
    node_useful += k.useful;
  }
  rep.add("node.callbacks_per_msg",
          ratio(static_cast<double>(node_calls), static_cast<double>(msgs)),
          "ratio", std::to_string(node_calls) + " callbacks / " +
                       std::to_string(msgs) + " charged msgs");
  rep.add("node.useful_ratio",
          ratio(static_cast<double>(node_useful), static_cast<double>(node_calls)),
          "ratio", std::to_string(node_useful) + " of " +
                       std::to_string(node_calls) + " callbacks");
  const double node_cb_ns =
      cb_per_step([](const CorrectedCallbacks& c) { return c.node_total; });
  const double self_ns =
      corr.empty() ? driver_ns
                   : cb_per_step([](const CorrectedCallbacks& c) { return c.driver_self; });
  const double gap_pct =
      corr.empty() ? 0.0
                   : (ratio(cb_per_step([](const CorrectedCallbacks& c) {
                              return c.driver_step;
                            }),
                            driver_ns) -
                      1.0) * 100.0;
  rep.add("driver.self_ns", self_ns, "ns", "tick scan + transport");
  rep.add("trace.timer_pair_ns", cost.pair_ns, "ns",
          "inner " + std::to_string(cost.inner_ns) + " ns, untimed " +
              std::to_string(cost.bare_ns) + " ns, 1 in " +
              std::to_string(kNodeSampleMask + 1) + " node callbacks timed");
  rep.add("trace.corrected_step_gap_pct", gap_pct, "%",
          "corrected traced driver.step vs span-only driver.step");

  // Against the untraced totals.
  std::vector<double> untraced_steady;
  for (const UntracedRun& r : plain) {
    untraced_steady.push_back(r.result.wall_seconds - r.result.init_seconds);
  }
  const double untraced_step_ns = median(untraced_steady) * 1e9 / S;
  const double traced_step_ns =
      median_of(cb_runs.empty() ? spans_runs : cb_runs,
                [](const Ledger& L) { return L.wall_s - L.init_s; }) * 1e9 / S;
  rep.add("trace.overhead_pct", (ratio(traced_step_ns, untraced_step_ns) - 1.0) * 100.0,
          "%", cb_runs.empty() ? "step spans vs run_scenario"
                               : "callback tracing vs run_scenario");
  const double layers_ns =
      streams_ns + set_value_ns + truth_update_ns + faults_ns + driver_ns + check_ns;
  rep.add("trace.layers_vs_untraced_pct", ratio(layers_ns, untraced_step_ns) * 100.0,
          "%", "sum of layer spans vs untraced " + std::to_string(untraced_step_ns) +
                   " ns/step");
  rep.add("harness.self_ns", step_self_ns(sp.spans), "ns",
          "step span minus its layer spans");

  std::cout << "layer shares of the untraced step (" << untraced_step_ns << " ns):\n";
  const std::pair<const char*, double> shares[] = {
      {"streams.advance", streams_ns}, {"observe.set_value", set_value_ns},
      {"truth.update", truth_update_ns}, {"faults.apply", faults_ns},
      {"driver.step", driver_ns},       {"  driver.self", self_ns},
      {"  node callbacks", node_cb_ns}, {"truth.check", check_ns},
  };
  for (const auto& [name, ns] : shares) {
    char line[128];
    std::snprintf(line, sizeof line, "  %-20s %12.1f ns  %6.2f%%\n", name, ns,
                  ratio(ns, untraced_step_ns) * 100.0);
    std::cout << line;
  }
  std::cout << "fingerprint " << fp.describe() << " (untraced == traced)\n";
  write_spans(o.trace_dir, w, o, sp.spans);

  std::uint64_t attempted = 0;
  for (const UntracedRun& r : plain) attempted += r.result.steps_executed;
  return {attempted, 0};
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--commit") {
      o.commit = v;
    } else if (a == "--trace-dir") {
      o.trace_dir = v;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit TEXT] [--trace-dir DIR]\n";
    return 2;
  }
  try {
    const Workload& w = find_workload(o.workload);
    print_facts(o, w);
    Report rep;
    const Outcome out = o.trace ? per_layer(o, w, rep) : end_to_end(o, w, rep);
    rep.print(std::cout);
    std::cout << "{\"correct\": true, \"attempted\": " << out.attempted
              << ", \"failed\": " << out.failed << ", \"metrics\": "
              << rep.json(o.trace ? kPerLayer : kEndToEnd) << "}"
              << std::endl;
    return 0;
  } catch (const CheckFailed& e) {
    std::cout.flush();
    std::cerr << "perfbench: CHECK FAILED: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cout.flush();
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
