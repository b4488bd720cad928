// e18 — sharding suite: the two-tier hierarchical deployment
// (core/root_merge.hpp) swept over the shard count c, with per-tier
// message accounting.
//
// The claim under test: partitioning n nodes across c shard coordinators
// under a root coordinator keeps steady-state traffic *within* shards —
// the shard<->root tier only speaks when a shard's local top-k boundary
// crosses the root filter. The suite runs c ∈ {1, 2, 4, 8, 16} on the
// same paired streams (the shards axis never enters the seed) and prints
// both tiers side by side; on the default workload the shard<->root tier
// speaks only in the bootstrap renegotiation, and the node<->shard tier
// carries 8-24x it for the filter (>= 65x for naive_chg) — the ratio
// column makes the hierarchy's locality visible.
//
// The c = 1 rows double as the equivalence pin: each is executed through
// run_sharded_scenario (inert root tier) AND the monolithic run_scenario
// path, and the suite hard-asserts identical message counts (total and
// per kind), identical divergence and an all-zero root tier — the
// "shards=1 is message-for-message the single-coordinator path" contract,
// asserted on every run (tests/core/test_shard_equivalence.cpp pins the
// same contract per answer step).
//
// Outputs:
//   * ctx.emit("e18_shards"): deterministic fingerprint (per-tier message
//     counts, error steps per case) — byte-identical across --jobs and
//     --workers, diffed by CI.
//   * BENCH_shards_<label>.json: wall-clock record (steps/sec per case),
//     next to e16/e17's BENCH files in the perf trajectory.
#include <fstream>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "bench_common.hpp"

namespace topkmon::bench {
namespace {

using exp::run_sharded_scenario;

struct ShardCase {
  std::string name;
  std::size_t n;
  const char* monitor;
  const char* mon_tag;
  std::size_t shards;
};

/// Messages by direction and kind must match exactly (the per-kind array
/// is the finest accounting the CommStats surface exposes).
bool same_comm(const CommStats& a, const CommStats& b) {
  if (a.upstream() != b.upstream() || a.unicast() != b.unicast() ||
      a.broadcast() != b.broadcast()) {
    return false;
  }
  for (std::size_t i = 0; i < kNumMsgKinds; ++i) {
    const auto kind = static_cast<MsgKind>(i);
    if (a.by_kind(kind) != b.by_kind(kind)) return false;
  }
  return true;
}

TOPKMON_SUITE(e18_shards,
              "sharded two-tier deployment: per-tier messages vs shard "
              "count (c=1 pinned to the monolithic path)") {
  const std::uint64_t steps = ctx.opts().steps_or(120);
  const std::uint64_t seed = ctx.opts().seed;
  constexpr std::size_t kK = 32;

  const std::vector<std::size_t> ns = {1u << 12, 1u << 16, 1u << 20};
  const std::vector<std::size_t> cs = {1, 2, 4, 8, 16};
  const std::vector<std::pair<const char*, const char*>> monitors = {
      {"topk_filter?nobeacon", "filter"},
      {"naive_chg", "naive_chg"},
  };

  // c innermost: each (n, monitor) group is contiguous, its first row is
  // the c = 1 reference for the timing table.
  std::vector<ShardCase> cases;
  for (const std::size_t n : ns) {
    for (const auto& [mon, tag] : monitors) {
      for (const std::size_t c : cs) {
        cases.push_back(ShardCase{"n" + std::to_string(n) + "_" + tag + "_c" +
                                      std::to_string(c),
                                  n, mon, tag, c});
      }
    }
  }

  const auto outcomes =
      ctx.runner().map<RunResult>(cases.size(), [&](std::size_t i) {
        const ShardCase& c = cases[i];
        StreamSpec stream;
        stream.family = StreamFamily::kSparse;
        stream.sparse.rate = 0.01;
        stream.sparse_inner = StreamFamily::kRandomWalk;
        // e16/e17's drift regime: wide range (values stay pairwise
        // distinct in practice), gentle steps, 1% activity.
        stream.walk.hi = 100'000'000;
        stream.walk.max_step = 64;
        Scenario sc = scenario(c.monitor, stream, c.n, kK, steps, seed);
        sc.shards = c.shards;
        sc.workers = ctx.opts().workers;
        // Sharded exactness is an invariant, not an assumption: record
        // any divergence as error steps (part of the fingerprint, so a
        // regression shows up as a diff AND a nonzero column).
        sc.validation = RunConfig::Validation::kWeak;
        sc.throw_on_error = false;
        RunResult sharded = run_sharded_scenario(sc);
        if (c.shards == 1) {
          // Equivalence pin: the inert-root sharded path must be
          // message-for-message the monolithic path.
          const RunResult mono = run_scenario(sc);
          if (!same_comm(sharded.comm, mono.comm) ||
              sharded.error_steps != mono.error_steps ||
              sharded.root_comm.total() != 0) {
            throw std::logic_error("e18: shards=1 diverged from the "
                                   "monolithic path at " +
                                   c.name);
          }
        }
        return sharded;
      });

  Table fingerprint({"case", "n", "k", "monitor", "shards", "steps",
                     "msgs_node_shard", "msgs_shard_root", "tier_ratio",
                     "msgs_per_step", "error_steps"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ShardCase& c = cases[i];
    const RunResult& r = outcomes[i];
    const double ratio =
        r.root_comm.total() > 0
            ? static_cast<double>(r.comm.total()) /
                  static_cast<double>(r.root_comm.total())
            : 0.0;
    fingerprint.add_row(
        {c.name, std::to_string(c.n), std::to_string(kK), c.mon_tag,
         std::to_string(c.shards), std::to_string(r.steps_executed),
         std::to_string(r.comm.total()), std::to_string(r.root_comm.total()),
         r.root_comm.total() > 0 ? fmt(ratio, 1) : "inf",
         fmt(r.messages_per_step(), 3), std::to_string(r.error_steps)});
  }
  ctx.emit(fingerprint, "e18_shards");

  // Timing summary: steady-state steps/s per shard count (console + BENCH
  // file; machine-dependent, not diffed). Initialization excluded as in
  // e16/e17.
  const auto steady_sps = [](const RunResult& r) {
    const double seconds = r.wall_seconds - r.init_seconds;
    return seconds > 0.0 && r.steps_executed > 1
               ? static_cast<double>(r.steps_executed - 1) / seconds
               : 0.0;
  };
  std::vector<std::string> header = {"config"};
  for (const std::size_t c : cs) {
    header.push_back("c" + std::to_string(c) + " steps/s");
  }
  Table timing(header);
  for (std::size_t g = 0; g < cases.size(); g += cs.size()) {
    std::vector<std::string> row = {
        cases[g].name.substr(0, cases[g].name.rfind('_'))};
    for (std::size_t ci = 0; ci < cs.size(); ++ci) {
      row.push_back(fmt(steady_sps(outcomes[g + ci]), 0));
    }
    timing.add_row(row);
  }
  ctx.out() << "\n";
  timing.print(ctx.out());

  const std::string label = bench_label();
  const std::string dir =
      ctx.opts().out_dir.empty() ? std::string(".") : ctx.opts().out_dir;
  const std::string path = dir + "/BENCH_shards_" + label + ".json";
  std::ofstream out(path);
  if (!out) {
    ctx.out() << "e18: cannot write " << path << "\n";
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
    const ShardCase& c = cases[i];
    const RunResult& r = outcomes[i];
    const double sps = steady_sps(r);
    const double nsps = sps > 0.0 ? 1e9 / sps : 0.0;
    out << "    {\"name\": \"" << c.name << "\", \"n\": " << c.n
        << ", \"k\": " << kK << ", \"monitor\": \"" << c.mon_tag
        << "\", \"shards\": " << c.shards
        << ", \"wall_seconds\": " << fmt(r.wall_seconds, 6)
        << ", \"init_seconds\": " << fmt(r.init_seconds, 6)
        << ", \"steps_per_sec\": " << fmt(sps, 1)
        << ", \"ns_per_step\": " << fmt(nsps, 1)
        << ", \"messages_node_shard\": " << r.comm.total()
        << ", \"messages_shard_root\": " << r.root_comm.total()
        << ", \"error_steps\": " << r.error_steps << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  ctx.out() << "e18: wrote " << path << "\n";
}

}  // namespace
}  // namespace topkmon::bench
