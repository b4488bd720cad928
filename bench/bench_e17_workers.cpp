// e17 — worker-scaling suite: steps/sec versus the SimDriver's tick-scan
// parallelism W, the per-scenario scaling axis on top of e16's n axis.
//
// PR 4 made the per-tick cost proportional to activity, PR 5 made the
// node state a flat structure of arrays; this suite measures the parallel
// tick loop built on both: the same configuration run at W ∈ {1, 2, 4, 8}
// workers, with the in-suite assertion that every W row is functionally
// identical to the W = 1 row — the parallel-tick determinism contract,
// measured, not assumed (CI additionally byte-diffs the whole fingerprint
// at --workers 1 vs 8).
//
// Outputs:
//   * ctx.emit("e17_workers"): deterministic fingerprint (message counts,
//     error steps per case × W) — byte-identical across --jobs AND
//     --workers, diffed by CI.
//   * BENCH_workers_<label>.json: wall-clock record (steps/sec per case
//     and worker count), next to e16's BENCH_scale_<label>.json in the
//     perf trajectory. Speedups only manifest on multi-core hosts; on a
//     1-core container the W > 1 rows measure staging overhead instead.
#include <algorithm>
#include <fstream>
#include <thread>

#include "alloc_hook.hpp"
#include "bench_common.hpp"

namespace topkmon::bench {
namespace {

struct WorkerCase {
  std::string name;
  std::size_t n;
  double activity;
  const char* network;
  std::size_t workers;
};

std::string case_name(std::size_t n, double activity, const char* network,
                      std::size_t workers) {
  // Appended piecewise: gcc 12 flags `"n" + std::string&&` with a false
  // -Wrestrict.
  std::string name = "n";
  name += std::to_string(n);
  name += "_act";
  name += fmt(activity, 2);
  name += parse_network_spec(network).is_instant() ? "_instant" : "_sched";
  name += "_w";
  name += std::to_string(workers);
  return name;
}

TOPKMON_SUITE(e17, "worker scaling: steps/sec vs tick-scan workers "
                   "(byte-identical output per W)") {
  const std::uint64_t steps = ctx.opts().steps_or(160);
  const std::uint64_t seed = ctx.opts().seed;
  constexpr std::size_t kK = 8;

  // The W axis. --workers adds its (resolved) value so the CI smoke's
  // `--workers 8` run covers W = 8 twice-identically rather than adding
  // a row — the fingerprint must stay byte-identical across the flag.
  std::vector<std::size_t> ws = {1, 2, 4, 8};
  {
    std::size_t flag = ctx.opts().workers;
    if (flag == 0) {
      flag = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    if (std::find(ws.begin(), ws.end(), flag) == ws.end()) {
      ws.insert(std::upper_bound(ws.begin(), ws.end(), flag), flag);
    }
  }

  // Same regimes as e16's drift rows: the paper's 1% activity and the
  // adversarial 100% one, on the instant fast path and a budgeted
  // scheduled policy. n picks one mid and one large size — the large one
  // is where the word-range partition has enough bits per shard to
  // amortize the barrier.
  const std::vector<std::size_t> ns = {1u << 12, 1u << 16};
  const std::vector<double> activities = {0.01, 1.0};
  const std::vector<const char*> networks = {"instant",
                                             "delay=1,jitter=2,ticks=8"};

  // W innermost, so each (n, activity, network) group is contiguous and
  // its first row is the W = 1 reference the others are checked against.
  std::vector<WorkerCase> cases;
  for (const std::size_t n : ns) {
    for (const double act : activities) {
      for (const char* net : networks) {
        for (const std::size_t w : ws) {
          cases.push_back(
              WorkerCase{case_name(n, act, net, w), n, act, net, w});
        }
      }
    }
  }

  const auto outcomes =
      ctx.runner().map<RunResult>(cases.size(), [&](std::size_t i) {
        const WorkerCase& c = cases[i];
        StreamSpec stream;
        stream.family = StreamFamily::kSparse;
        stream.sparse.rate = c.activity;
        stream.sparse_inner = StreamFamily::kRandomWalk;
        // e16's drift regime: wide range, gentle steps — violation bursts
        // occur, but most ticks are sparse.
        stream.walk.hi = 100'000'000;
        stream.walk.max_step = 64;
        Scenario sc =
            scenario("topk_filter?nobeacon", stream, c.n, kK, steps, seed);
        sc.network = parse_network_spec(c.network);
        sc.workers = c.workers;
        if (sc.network.is_instant()) {
          sc.validation = RunConfig::Validation::kStrict;
        } else {
          // Under a tick budget the answer is legitimately stale; record
          // divergence instead of throwing (the counts stay deterministic
          // and are part of the fingerprint).
          sc.validation = RunConfig::Validation::kWeak;
          sc.throw_on_error = false;
        }
        return run_scenario(sc);
      });

  // The determinism contract, asserted in-suite: every W row of a group
  // must match its W = 1 reference exactly — same messages, same
  // divergence pattern. (CI's workers smoke additionally byte-diffs the
  // emitted fingerprint files across --workers runs.)
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::size_t ref = i - i % ws.size();  // the group's W = 1 row
    if (outcomes[i].comm.total() != outcomes[ref].comm.total() ||
        outcomes[i].error_steps != outcomes[ref].error_steps) {
      throw std::logic_error("e17: workers divergence at " + cases[i].name +
                             " vs " + cases[ref].name);
    }
  }

  Table fingerprint({"case", "n", "k", "activity", "network", "workers",
                     "steps", "msgs_total", "msgs_per_step", "error_steps"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const WorkerCase& c = cases[i];
    const RunResult& r = outcomes[i];
    fingerprint.add_row(
        {c.name, std::to_string(c.n), std::to_string(kK), fmt(c.activity, 2),
         c.network, std::to_string(c.workers),
         std::to_string(r.steps_executed), std::to_string(r.comm.total()),
         fmt(r.messages_per_step(), 3), std::to_string(r.error_steps)});
  }
  ctx.emit(fingerprint, "e17_workers");

  // Timing summary: steady-state steps/s per W and the speedup of each
  // W > 1 column over W = 1 (console + BENCH file; wall clock is
  // machine-dependent, not diffed). Initialization is excluded like in
  // e16 — it is serial under every W.
  const auto steady_sps = [](const RunResult& r) {
    const double seconds = r.wall_seconds - r.init_seconds;
    return seconds > 0.0 && r.steps_executed > 1
               ? static_cast<double>(r.steps_executed - 1) / seconds
               : 0.0;
  };
  std::vector<std::string> header = {"config"};
  for (const std::size_t w : ws) {
    header.push_back("w" + std::to_string(w) + " steps/s");
  }
  for (std::size_t wi = 1; wi < ws.size(); ++wi) {
    header.push_back("x" + std::to_string(ws[wi]));
  }
  Table timing(header);
  for (std::size_t g = 0; g < cases.size(); g += ws.size()) {
    std::vector<std::string> row = {
        cases[g].name.substr(0, cases[g].name.rfind('_'))};
    const double base = steady_sps(outcomes[g]);
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
      row.push_back(fmt(steady_sps(outcomes[g + wi]), 0));
    }
    for (std::size_t wi = 1; wi < ws.size(); ++wi) {
      const double sps = steady_sps(outcomes[g + wi]);
      row.push_back(base > 0.0 ? fmt(sps / base, 2) : "-");
    }
    timing.add_row(row);
  }
  ctx.out() << "\n";
  timing.print(ctx.out());

  const std::string label = bench_label();
  const std::string dir =
      ctx.opts().out_dir.empty() ? std::string(".") : ctx.opts().out_dir;
  const std::string path = dir + "/BENCH_workers_" + label + ".json";
  std::ofstream out(path);
  if (!out) {
    ctx.out() << "e17: cannot write " << path << "\n";
    return;
  }
  out << "{\n";
  out << "  \"schema\": \"topkmon-bench-v1\",\n";
  out << "  \"label\": \"" << label << "\",\n";
  out << "  \"alloc_hook\": " << (alloc_hook_enabled() ? "true" : "false")
      << ",\n";
  out << "  \"steps\": " << steps << ",\n";
  out << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const WorkerCase& c = cases[i];
    const RunResult& r = outcomes[i];
    const double sps = steady_sps(r);
    const double nsps = sps > 0.0 ? 1e9 / sps : 0.0;
    out << "    {\"name\": \"" << c.name << "\", \"n\": " << c.n
        << ", \"k\": " << kK << ", \"activity\": " << fmt(c.activity, 2)
        << ", \"network\": \"" << c.network << "\", \"workers\": "
        << c.workers << ", \"wall_seconds\": " << fmt(r.wall_seconds, 6)
        << ", \"init_seconds\": " << fmt(r.init_seconds, 6)
        << ", \"steps_per_sec\": " << fmt(sps, 1) << ", \"ns_per_step\": "
        << fmt(nsps, 1) << ", \"messages_total\": " << r.comm.total()
        << ", \"error_steps\": " << r.error_steps << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  ctx.out() << "e17: wrote " << path << "\n";
}

}  // namespace
}  // namespace topkmon::bench
