#include "measure.hpp"

#include <algorithm>
#include <random>
#include <sstream>

#include "alloc_hook.hpp"
#include "exp/scenario.hpp"

namespace perfbench {

using topkmon::bench::thread_alloc_count;

std::uint64_t Fingerprint::total_msgs() const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : node_tier) total += c;
  for (const std::uint64_t c : root_tier) total += c;
  return total;
}

std::string Fingerprint::describe() const {
  std::ostringstream out;
  const auto tier = [&](const char* name, const auto& counts) {
    out << name << "{";
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) continue;
      out << topkmon::msg_kind_name(static_cast<topkmon::MsgKind>(i)) << "="
          << counts[i] << " ";
    }
    out << "} ";
  };
  tier("node", node_tier);
  tier("root", root_tier);
  out << "wrong_steps=" << wrong_steps << " answer_hash=" << std::hex
      << answer_hash;
  return out.str();
}

Fingerprint make_fingerprint(const topkmon::CommStats& node_tier,
                             const topkmon::CommStats& root_tier,
                             std::uint64_t wrong_steps,
                             std::uint64_t answer_hash) {
  Fingerprint fp;
  for (std::size_t i = 0; i < topkmon::kNumMsgKinds; ++i) {
    const auto kind = static_cast<topkmon::MsgKind>(i);
    fp.node_tier[i] = node_tier.by_kind(kind);
    fp.root_tier[i] = root_tier.by_kind(kind);
  }
  fp.wrong_steps = wrong_steps;
  fp.answer_hash = answer_hash;
  return fp;
}

HostIndex::HostIndex() : keys_(std::size_t{1} << 16), scratch_(keys_.size()) {
  std::mt19937 gen(20240611);
  for (std::uint32_t& k : keys_) k = static_cast<std::uint32_t>(gen());
}

double HostIndex::sample() {
  const std::int64_t t0 = now_ns();
  for (int round = 0; round < 3; ++round) {
    std::copy(keys_.begin(), keys_.end(), scratch_.begin());
    std::sort(scratch_.begin(), scratch_.end());
    checksum_ += scratch_[static_cast<std::size_t>(round) * 97];
  }
  return static_cast<double>(now_ns() - t0) / kNominalNs;
}

UntracedRun run_untraced(const Workload& w, std::uint64_t seed,
                         std::uint64_t steps) {
  UntracedRun out;
  // Everything the per-step observer touches is allocated up front, so
  // it adds no heap traffic to the run it measures.
  std::vector<std::int64_t> stamps(steps + 1, 0);
  std::vector<std::int64_t> cpu_stamps(steps + 1, 0);
  AnswerHash hash;
  std::uint64_t allocs_at_first = 0;
  std::uint64_t allocs_at_last = 0;

  topkmon::exp::Scenario sc = make_scenario(w, seed, steps);
  sc.on_step = [&](topkmon::TimeStep t, const std::vector<topkmon::Value>&,
                   const std::vector<topkmon::NodeId>& answer) {
    stamps[t] = now_ns();
    cpu_stamps[t] = thread_cpu_ns();
    hash.add(t, answer);
    if (t == 0) allocs_at_first = thread_alloc_count();
    if (t == steps) allocs_at_last = thread_alloc_count();
  };

  const std::uint64_t allocs_before = thread_alloc_count();
  out.result = topkmon::exp::run_scenario(sc);
  out.allocs = thread_alloc_count() - allocs_before;
  out.steady_allocs = allocs_at_last - allocs_at_first;

  out.step_us.reserve(steps);
  out.step_wall_us.reserve(steps);
  for (std::uint64_t t = 1; t <= steps; ++t) {
    out.step_us.push_back(static_cast<double>(cpu_stamps[t] - cpu_stamps[t - 1]) / 1e3);
    out.step_wall_us.push_back(static_cast<double>(stamps[t] - stamps[t - 1]) / 1e3);
  }
  out.fp = make_fingerprint(out.result.comm, out.result.root_comm,
                            out.result.error_steps, hash.value());
  return out;
}

}  // namespace perfbench
