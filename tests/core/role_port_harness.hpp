// Shared equivalence harness for the native role ports.
//
// Every monitor is one native CoordinatorAlgo/NodeAlgo pair. Its
// reference behaviour is frozen in tests/data/role_port_goldens.txt: one
// digest line per recorded run, written while each port still had a
// lock-step twin and only where the twin and the port produced the same
// line. The instruments:
//
//   * run_native — one run of a spec through exp::run_scenario (the path
//     every suite and the benchmark take), messages and errors recorded;
//   * expect_identical / results_identical — the full comparison of two
//     native runs: per-step message series, messages by direction and by
//     kind, algorithm event counters, and the per-step error pattern
//     (parallel-vs-serial identity, the mutant's clean arm);
//   * expect_goldens — re-runs every golden line of a group and compares
//     the digest field by field. A "run" line digests a run_scenario run;
//     a "parity" line digests a manual SimDriver drive and adds the rank
//     order of the ordered monitor's answers plus one draw from a copy of
//     every node RNG and the coordinator RNG — the coin-flip identity.
//
// A digest line holds the key (kind, group, spec, family, n, k, seed,
// steps) and the measured fields: messages by direction and kind, an
// FNV-1a-64 hash of the per-step message series, of the per-step answers
// and of the error-step list, the six MonitorStats counters the harness
// compares, and (parity lines) the RNG hash. On a mismatch the test
// prints the first differing field and the actual line, which is also
// how a new monitor's goldens are written: add its key with any measured
// value, run the test once, and check the printed line in after review.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/ordered_roles.hpp"
#include "core/runner.hpp"
#include "exp/monitor_registry.hpp"
#include "exp/scenario.hpp"
#include "sim/cluster.hpp"
#include "streams/factory.hpp"

#ifndef TOPKMON_GOLDEN_FILE
#error "TOPKMON_GOLDEN_FILE must name tests/data/role_port_goldens.txt"
#endif

namespace topkmon::harness {

struct Shape {
  std::size_t n;
  std::size_t k;
};

inline RunResult run_native(
    const std::string& spec, const StreamSpec& stream, Shape s,
    std::uint64_t seed, std::size_t steps,
    RunConfig::Validation validation = RunConfig::Validation::kWeak,
    const std::string& network = "instant", std::size_t workers = 1,
    const std::string& faults = "") {
  exp::Scenario sc;
  sc.monitor = spec;
  sc.stream = stream;
  sc.with_network(network);
  sc.n = s.n;
  sc.k = s.k;
  sc.steps = steps;
  sc.seed = seed;
  sc.workers = workers;
  sc.faults = faults;
  sc.validation = validation;
  sc.record_series = true;
  // Divergence is recorded, not thrown: lossy configurations (and the
  // mutant property test) legitimately err, and the comparisons check
  // that both sides err in exactly the same steps.
  sc.throw_on_error = false;
  return exp::run_scenario(sc);
}

inline RunResult run_native(
    const std::string& spec, const std::string& family, Shape s,
    std::uint64_t seed, std::size_t steps,
    RunConfig::Validation validation = RunConfig::Validation::kWeak,
    const std::string& network = "instant", std::size_t workers = 1,
    const std::string& faults = "") {
  return run_native(spec, parse_stream_spec(family, StreamSpec{}), s, seed,
                    steps, validation, network, workers, faults);
}

/// Non-fatal comparison of two runs: true iff every compared dimension
/// matches. The mutant property test uses the boolean form to assert the
/// comparison *fails* on a perturbed port; expect_identical uses gtest
/// expectations for readable per-dimension diagnostics.
inline bool results_identical(const RunResult& a, const RunResult& b) {
  if (a.monitor_name != b.monitor_name) return false;
  if (a.comm.upstream() != b.comm.upstream()) return false;
  if (a.comm.unicast() != b.comm.unicast()) return false;
  if (a.comm.broadcast() != b.comm.broadcast()) return false;
  for (std::size_t kind = 0; kind < kNumMsgKinds; ++kind) {
    if (a.comm.by_kind(static_cast<MsgKind>(kind)) !=
        b.comm.by_kind(static_cast<MsgKind>(kind))) {
      return false;
    }
  }
  if (a.comm.series() != b.comm.series()) return false;
  if (a.monitor.violation_steps != b.monitor.violation_steps) return false;
  if (a.monitor.violations != b.monitor.violations) return false;
  if (a.monitor.handler_calls != b.monitor.handler_calls) return false;
  if (a.monitor.midpoint_updates != b.monitor.midpoint_updates) return false;
  if (a.monitor.filter_resets != b.monitor.filter_resets) return false;
  if (a.monitor.protocol_runs != b.monitor.protocol_runs) return false;
  if (a.correct != b.correct) return false;
  if (a.error_steps != b.error_steps) return false;
  if (a.first_error_step != b.first_error_step) return false;
  if (a.error_step_list != b.error_step_list) return false;
  return true;
}

inline void expect_identical(const RunResult& a, const RunResult& b,
                             const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.monitor_name, b.monitor_name);

  // Communication: every direction, every kind, every step.
  EXPECT_EQ(a.comm.upstream(), b.comm.upstream());
  EXPECT_EQ(a.comm.unicast(), b.comm.unicast());
  EXPECT_EQ(a.comm.broadcast(), b.comm.broadcast());
  for (std::size_t kind = 0; kind < kNumMsgKinds; ++kind) {
    EXPECT_EQ(a.comm.by_kind(static_cast<MsgKind>(kind)),
              b.comm.by_kind(static_cast<MsgKind>(kind)))
        << "kind " << msg_kind_name(static_cast<MsgKind>(kind));
  }
  EXPECT_EQ(a.comm.series(), b.comm.series());

  // Algorithm event counters.
  EXPECT_EQ(a.monitor.violation_steps, b.monitor.violation_steps);
  EXPECT_EQ(a.monitor.violations, b.monitor.violations);
  EXPECT_EQ(a.monitor.handler_calls, b.monitor.handler_calls);
  EXPECT_EQ(a.monitor.midpoint_updates, b.monitor.midpoint_updates);
  EXPECT_EQ(a.monitor.filter_resets, b.monitor.filter_resets);
  EXPECT_EQ(a.monitor.protocol_runs, b.monitor.protocol_runs);

  // Per-step answer pattern against the ground truth.
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.error_steps, b.error_steps);
  EXPECT_EQ(a.first_error_step, b.first_error_step);
  EXPECT_EQ(a.error_step_list, b.error_step_list);
}

// ---------------------------------------------------------------------------
// Golden digests
// ---------------------------------------------------------------------------

/// FNV-1a-64 over a sequence of 64-bit words (little-endian bytes).
struct Fnv1a64 {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
  template <typename Range>
  void add_range(const Range& r) {
    add(r.size());
    for (const auto x : r) add(static_cast<std::uint64_t>(x));
  }
};

/// The identifying half of a digest line.
struct GoldenKey {
  std::string kind = "run";  ///< "run" or "parity"
  std::string group;         ///< the test that checks the line
  std::string spec;
  std::string family;
  std::size_t n = 0;
  std::size_t k = 0;
  std::uint64_t seed = 0;
  std::size_t steps = 0;
};

/// The family token of a golden key: a stream spec, or "dense_walk" — a
/// unit-step walk in [0, 300] that crawls through every boundary it
/// crosses (the mutant test's workload; not a registered family).
inline StreamSpec golden_stream(const std::string& family) {
  if (family == "dense_walk") {
    StreamSpec stream;
    stream.family = StreamFamily::kRandomWalk;
    stream.walk.max_step = 1;
    stream.walk.hi = 300;
    return stream;
  }
  return parse_stream_spec(family, StreamSpec{});
}

/// Folds one step's answer (and the rank order, when given) into `h`.
inline void fold_answer(Fnv1a64& h, TimeStep t,
                        const std::vector<NodeId>& answer,
                        const std::vector<NodeId>* order) {
  h.add(t);
  h.add_range(answer);
  if (order != nullptr) h.add_range(*order);
}

/// One draw from a copy of every node RNG, then the coordinator RNG.
inline std::uint64_t rng_draw_hash(Cluster& cluster) {
  Fnv1a64 h;
  for (NodeId id = 0; id < cluster.size(); ++id) {
    Rng copy = cluster.node_rng(id);
    h.add(copy.next_u64());
  }
  Rng coord = cluster.coordinator_rng();
  h.add(coord.next_u64());
  return h.h;
}

inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Formats one digest line. `errors` is null for parity lines (no
/// ground-truth check), `rng` empty for run lines.
inline std::string format_digest(const GoldenKey& key, const CommStats& comm,
                                 const MonitorStats& mon,
                                 std::uint64_t answers,
                                 const std::vector<TimeStep>* errors,
                                 std::optional<std::uint64_t> rng) {
  std::ostringstream out;
  out << key.kind << " group=" << key.group << " spec=" << key.spec
      << " fam=" << key.family << " n=" << key.n << " k=" << key.k
      << " seed=" << key.seed << " steps=" << key.steps
      << " up=" << comm.upstream() << " uni=" << comm.unicast()
      << " bc=" << comm.broadcast() << " kinds=";
  for (std::size_t kind = 0; kind < kNumMsgKinds; ++kind) {
    out << (kind == 0 ? "" : "/") << comm.by_kind(static_cast<MsgKind>(kind));
  }
  Fnv1a64 series;
  series.add_range(comm.series());
  out << " series=" << hex64(series.h) << " answers=" << hex64(answers);
  if (errors != nullptr) {
    Fnv1a64 errlist;
    errlist.add_range(*errors);
    out << " errors=" << errors->size() << " errlist=" << hex64(errlist.h);
  }
  out << " stats=" << mon.violation_steps << '/' << mon.violations << '/'
      << mon.handler_calls << '/' << mon.midpoint_updates << '/'
      << mon.filter_resets << '/' << mon.protocol_runs;
  if (rng.has_value()) out << " rng=" << hex64(*rng);
  return out.str();
}

/// Digest of a run_scenario run (kWeak validation, errors recorded).
inline std::string digest_run(const GoldenKey& key) {
  exp::Scenario sc;
  sc.monitor = key.spec;
  sc.stream = golden_stream(key.family);
  sc.n = key.n;
  sc.k = key.k;
  sc.steps = key.steps;
  sc.seed = key.seed;
  sc.validation = RunConfig::Validation::kWeak;
  sc.record_series = true;
  sc.throw_on_error = false;
  Fnv1a64 answers;
  sc.on_step = [&](TimeStep t, const std::vector<Value>&,
                   const std::vector<NodeId>& answer) {
    fold_answer(answers, t, answer, nullptr);
  };
  const RunResult r = exp::run_scenario(sc);
  return format_digest(key, r.comm, r.monitor, answers.h, &r.error_step_list,
                       std::nullopt);
}

/// Digest of a manual SimDriver drive (dense observe): answers with the
/// ordered monitor's rank order, plus the RNG draw hash.
inline std::string digest_parity(const GoldenKey& key) {
  Cluster cluster(key.n, key.seed);
  cluster.stats().enable_series();
  exp::RolePair pair = exp::make_role_pair(cluster, key.spec, key.k);
  SimDriver driver(cluster, *pair.coordinator, pair.nodes, pair.native);
  auto streams = make_stream_set(golden_stream(key.family), key.n, key.seed);
  streams.plan_steps(key.steps + 1);
  const auto* ordered =
      dynamic_cast<const OrderedCoordinator*>(pair.coordinator.get());

  std::vector<Value> observed(key.n);
  const auto observe = [&](TimeStep t) {
    cluster.stats().begin_step(t);
    streams.advance_all(observed);
    for (NodeId id = 0; id < key.n; ++id) cluster.set_value(id, observed[id]);
  };
  Fnv1a64 answers;
  const auto fold = [&](TimeStep t) {
    fold_answer(answers, t, pair.coordinator->topk(),
                ordered != nullptr ? &ordered->ordered_topk() : nullptr);
  };
  observe(0);
  driver.initialize();
  fold(0);
  for (TimeStep t = 1; t <= key.steps; ++t) {
    observe(t);
    driver.step(t);
    fold(t);
  }
  return format_digest(key, cluster.stats(), pair.coordinator->monitor_stats(),
                       answers.h, nullptr, rng_draw_hash(cluster));
}

inline std::string digest(const GoldenKey& key) {
  return key.kind == "parity" ? digest_parity(key) : digest_run(key);
}

inline std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  for (std::string tok; in >> tok;) out.push_back(tok);
  return out;
}

inline GoldenKey parse_golden_key(const std::string& line) {
  GoldenKey key;
  const auto tokens = split_tokens(line);
  if (!tokens.empty()) key.kind = tokens[0];
  for (const std::string& tok : tokens) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) continue;
    const std::string name = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    if (name == "group") key.group = value;
    else if (name == "spec") key.spec = value;
    else if (name == "fam") key.family = value;
    else if (name == "n") key.n = std::stoul(value);
    else if (name == "k") key.k = std::stoul(value);
    else if (name == "seed") key.seed = std::stoull(value);
    else if (name == "steps") key.steps = std::stoul(value);
  }
  return key;
}

struct GoldenLine {
  GoldenKey key;
  std::string line;
};

/// Every line of the checked-in golden file ('#' lines are comments).
inline const std::vector<GoldenLine>& goldens() {
  static const std::vector<GoldenLine> lines = [] {
    std::vector<GoldenLine> out;
    std::ifstream in(TOPKMON_GOLDEN_FILE);
    for (std::string line; std::getline(in, line);) {
      if (line.empty() || line[0] == '#') continue;
      out.push_back({parse_golden_key(line), line});
    }
    return out;
  }();
  return lines;
}

inline bool is_key_field(const std::string& token) {
  static const char* const kKeys[] = {"group=", "spec=", "fam=",  "n=",
                                      "k=",     "seed=", "steps="};
  for (const char* key : kKeys) {
    if (token.rfind(key, 0) == 0) return true;
  }
  return false;
}

/// The first measured field on which two digest lines differ, as
/// "expected -> actual" (empty when every measured field matches). Key
/// fields are skipped, so a mutant spec can be checked against the clean
/// spec's golden line.
inline std::string first_difference(const std::string& expected,
                                    const std::string& actual) {
  std::vector<std::string> e;
  std::vector<std::string> a;
  for (const auto& tok : split_tokens(expected)) {
    if (!is_key_field(tok)) e.push_back(tok);
  }
  for (const auto& tok : split_tokens(actual)) {
    if (!is_key_field(tok)) a.push_back(tok);
  }
  for (std::size_t i = 0; i < std::max(e.size(), a.size()); ++i) {
    const std::string ei = i < e.size() ? e[i] : "<missing>";
    const std::string ai = i < a.size() ? a[i] : "<missing>";
    if (ei != ai) return ei + " -> " + ai;
  }
  return {};
}

/// Re-runs every golden line of `group` and expects each digest to match.
/// `exact` additionally requires the recorded run to have no error step
/// (the monitors that are exact on the instant network).
inline void expect_goldens(const std::string& group, bool exact = false) {
  std::size_t checked = 0;
  for (const GoldenLine& g : goldens()) {
    if (g.key.group != group) continue;
    ++checked;
    if (exact) {
      EXPECT_NE(g.line.find(" errors=0 "), std::string::npos)
          << "golden run is not exact: " << g.line;
    }
    const std::string actual = digest(g.key);
    const std::string diff = first_difference(g.line, actual);
    EXPECT_TRUE(diff.empty()) << "golden mismatch, first differing field: "
                              << diff << "\n  expected: " << g.line
                              << "\n  actual:   " << actual;
  }
  EXPECT_GT(checked, 0u) << "no golden lines for group '" << group << "'";
}

/// The single golden line of `group` (the mutant test's reference run).
inline const GoldenLine& golden_of(const std::string& group) {
  for (const GoldenLine& g : goldens()) {
    if (g.key.group == group) return g;
  }
  throw std::invalid_argument("no golden line for group '" + group + "'");
}

}  // namespace topkmon::harness
