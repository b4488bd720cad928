// E13 — extension: monitoring several k simultaneously. The multi-k
// monitor shares FILTERRESET work across boundaries (one top-(k_max+1)
// selection rebuilds all of them); the natural baseline runs one
// independent Algorithm 1 instance per k.
//
// Regenerates: total messages of the multi_k monitor vs the sum of independent
// instances, for growing boundary counts, on a reset-heavy and on a
// similar-inputs workload.
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace topkmon::bench {
namespace {

std::uint64_t run_multi(const StreamSpec& spec, std::size_t n,
                        const std::vector<std::size_t>& ks,
                        std::uint64_t steps, std::uint64_t seed) {
  std::string monitor = "multi_k?ks=";
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (i != 0) monitor += '+';
    monitor += std::to_string(ks[i]);
  }
  return run_scenario(scenario(std::move(monitor), spec, n, ks.front(), steps,
                               seed))
      .comm.total();
}

std::uint64_t run_independent(const StreamSpec& spec, std::size_t n,
                              const std::vector<std::size_t>& ks,
                              std::uint64_t steps, std::uint64_t seed) {
  std::uint64_t total = 0;
  for (const std::size_t k : ks) {
    total +=
        run_scenario(scenario("topk_filter", spec, n, k, steps, seed))
            .comm.total();
  }
  return total;
}

TOPKMON_SUITE(e13, "multi-k monitoring: shared vs independent (extension)") {
  const auto& args = ctx.opts();
  const std::uint64_t steps = args.steps_or(400);
  constexpr std::size_t kN = 64;

  ctx.out() << "E13: multi-k monitoring — shared vs independent machinery "
               "(extension)\n"
            << "n = " << kN << ", steps = " << steps
            << " (all boundaries validated in the test suite)\n\n";

  const std::vector<std::vector<std::size_t>> query_sets{
      {4}, {2, 8}, {2, 8, 16}, {1, 2, 4, 8, 16, 32}};
  const std::vector<StreamFamily> workloads{StreamFamily::kIidUniform,
                                            StreamFamily::kRandomWalk};

  struct Cell {
    std::uint64_t multi = 0, indep = 0;
  };
  const auto cells = ctx.runner().map<Cell>(
      workloads.size() * query_sets.size(), [&](std::size_t j) {
        StreamSpec spec;
        spec.family = workloads[j / query_sets.size()];
        spec.walk.max_step = 2'000;
        const auto& ks = query_sets[j % query_sets.size()];
        return Cell{run_multi(spec, kN, ks, steps, args.seed),
                    run_independent(spec, kN, ks, steps, args.seed)};
      });

  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    ctx.out() << "workload: " << family_name(workloads[wi]) << "\n";
    Table t({"monitored ks", "multi_k msgs", "independent msgs", "saving"});
    for (std::size_t qi = 0; qi < query_sets.size(); ++qi) {
      std::string label;
      for (const auto k : query_sets[qi]) {
        if (!label.empty()) label += ",";
        label += std::to_string(k);
      }
      const auto& cell = cells[wi * query_sets.size() + qi];
      t.add_row({label, fmt_count(cell.multi), fmt_count(cell.indep),
                 fmt(static_cast<double>(cell.indep) /
                         static_cast<double>(
                             std::max<std::uint64_t>(1, cell.multi)),
                     2)});
    }
    ctx.emit(t, std::string("e13_multik_") +
                    std::string(family_name(workloads[wi])));
    ctx.out() << "\n";
  }

  ctx.out()
      << "shape check: on reset-heavy inputs (iid) the saving grows with "
         "the number of monitored ks — one shared k_max+1 selection beats "
         "the sum of per-k selections. On localized churn (random walk) "
         "sharing can LOSE: a crossing at a small-k boundary triggers the "
         "full k_max+1 rebuild where an independent instance would only "
         "re-select k+1 nodes. A per-boundary local reset is the natural "
         "follow-up optimization (see DESIGN.md).\n";
}

}  // namespace
}  // namespace topkmon::bench
