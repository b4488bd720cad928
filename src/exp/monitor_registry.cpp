#include "exp/monitor_registry.hpp"

#include <stdexcept>
#include <utility>

#include "core/dominance_roles.hpp"
#include "core/filter_roles.hpp"
#include "core/multik_roles.hpp"
#include "core/naive_roles.hpp"
#include "core/ordered_roles.hpp"
#include "core/recompute_roles.hpp"
#include "core/slack_roles.hpp"
#include "util/strings.hpp"

namespace topkmon::exp {

namespace {

struct Param {
  std::string key;
  std::string value;  ///< empty for bare flags ("?adaptive")
};

struct ParsedSpec {
  std::string name;
  std::vector<Param> params;
};

ParsedSpec parse_spec(std::string_view spec) {
  ParsedSpec out;
  const std::size_t q = spec.find('?');
  out.name = std::string(spec.substr(0, q));
  if (q == std::string_view::npos) return out;
  for (const std::string_view item : split(spec.substr(q + 1), ',')) {
    const std::size_t eq = item.find('=');
    Param p;
    p.key = std::string(item.substr(0, eq));
    if (eq != std::string_view::npos) {
      p.value = std::string(item.substr(eq + 1));
    }
    out.params.push_back(std::move(p));
  }
  return out;
}

[[noreturn]] void bad_param(const ParsedSpec& spec, const Param& p) {
  throw std::invalid_argument("monitor '" + spec.name +
                              "': unknown or malformed parameter '" + p.key +
                              (p.value.empty() ? "" : "=" + p.value) + "'");
}

bool parse_flag(const Param& p) {
  if (p.value.empty() || p.value == "1" || p.value == "true") return true;
  if (p.value == "0" || p.value == "false") return false;
  throw std::invalid_argument("monitor parameter '" + p.key +
                              "': expected a boolean, got '" + p.value + "'");
}

std::int64_t parse_int(const ParsedSpec& spec, const Param& p) {
  const auto out = to_i64(p.value);
  if (!out) bad_param(spec, p);
  return *out;
}

double parse_double(const ParsedSpec& spec, const Param& p) {
  const auto out = to_double(p.value);
  if (!out) bad_param(spec, p);
  return *out;
}

/// Shared grammar of the specs that accept only `nobeacon` (ordered and
/// recompute).
bool parse_nobeacon_only(const ParsedSpec& spec) {
  bool nobeacon = false;
  for (const auto& p : spec.params) {
    if (p.key == "nobeacon") nobeacon = parse_flag(p);
    else bad_param(spec, p);
  }
  return nobeacon;
}

/// Rejects any parameter (specs without a parameter grammar).
void expect_no_params(const ParsedSpec& spec) {
  for (const auto& p : spec.params) bad_param(spec, p);
}

/// "2+8+16" -> {2, 8, 16}.
std::vector<std::size_t> parse_ks(const ParsedSpec& spec, const Param& p) {
  std::vector<std::size_t> out;
  for (const std::string_view item : split(p.value, '+')) {
    const auto v = to_u64(item);
    if (!v) bad_param(spec, p);
    out.push_back(static_cast<std::size_t>(*v));
  }
  if (out.empty()) bad_param(spec, p);
  return out;
}

}  // namespace

RolePair make_role_pair(Cluster& cluster, std::string_view spec,
                        std::size_t k) {
  const ParsedSpec parsed = parse_spec(spec);
  RolePair pair;

  if (parsed.name == "topk_filter") {
    FilterCoordinator::Options o;
    for (const auto& p : parsed.params) {
      if (p.key == "nobeacon") o.suppress_idle_broadcasts = parse_flag(p);
      // Seeded exponential backoff on defensive resets, for the
      // lossy-network and churn suites.
      else if (p.key == "backoff") o.reset_backoff = parse_flag(p);
      // Adversarial-degradation suspicion machinery (lag/stale/mute
      // plans; see core/filter_roles.hpp).
      else if (p.key == "suspect") o.suspect = parse_flag(p);
      // Warm-standby assignment replay on recovery/join (one
      // kFilterAssign instead of the resync handshake).
      else if (p.key == "replay") o.replay = parse_flag(p);
      else bad_param(parsed, p);
    }
    pair.coordinator = std::make_unique<FilterCoordinator>(k, o);
    pair.nodes.reserve(cluster.size());
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      pair.nodes.push_back(std::make_unique<FilterNode>(k));
    }
    return pair;
  }

  if (parsed.name == "naive" || parsed.name == "naive_chg") {
    // The suspicion machinery for adversarial degradations (silence
    // scan / audit probes; core/naive_roles.hpp).
    bool suspect = false;
    for (const auto& p : parsed.params) {
      if (p.key == "suspect") suspect = parse_flag(p);
      else bad_param(parsed, p);
    }
    const bool chg = (parsed.name == "naive_chg");
    pair.coordinator =
        std::make_unique<NaiveCoordinator>(k, chg, /*sharded=*/false, suspect);
    pair.nodes.reserve(cluster.size());
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      pair.nodes.push_back(std::make_unique<NaiveNode>(chg));
    }
    return pair;
  }

  if (parsed.name == "approx") {
    // The ε-approximate monitor is the filter monitor with half-widened
    // boundaries (FilterCoordinator::Options::approx), so it composes
    // with the same knobs as topk_filter.
    FilterCoordinator::Options o;
    o.approx = true;
    for (const auto& p : parsed.params) {
      if (p.key == "eps") o.epsilon = parse_int(parsed, p);
      else if (p.key == "nobeacon") o.suppress_idle_broadcasts = parse_flag(p);
      else if (p.key == "backoff") o.reset_backoff = parse_flag(p);
      else if (p.key == "suspect") o.suspect = parse_flag(p);
      else if (p.key == "replay") o.replay = parse_flag(p);
      else bad_param(parsed, p);
    }
    pair.coordinator = std::make_unique<FilterCoordinator>(k, o);
    pair.nodes.reserve(cluster.size());
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      pair.nodes.push_back(std::make_unique<FilterNode>(k, o.epsilon));
    }
    return pair;
  }

  if (parsed.name == "slack") {
    SlackCoordinator::Options o;
    for (const auto& p : parsed.params) {
      if (p.key == "alpha") o.alpha = parse_double(parsed, p);
      else if (p.key == "adaptive") o.adaptive = parse_flag(p);
      // TEST-ONLY: off-by-`nudge` boundary mutation for the equivalence
      // harness's self-test (tests/core/test_port_mutant.cpp). Never a
      // documented monitor parameter.
      else if (p.key == "nudge") o.debug_boundary_nudge = parse_int(parsed, p);
      else bad_param(parsed, p);
    }
    pair.coordinator = std::make_unique<SlackCoordinator>(k, o);
    pair.nodes.reserve(cluster.size());
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      pair.nodes.push_back(std::make_unique<SlackNode>());
    }
    return pair;
  }

  if (parsed.name == "dominance") {
    expect_no_params(parsed);
    pair.coordinator = std::make_unique<DominanceCoordinator>(k);
    pair.nodes.reserve(cluster.size());
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      pair.nodes.push_back(std::make_unique<DominanceNode>());
    }
    return pair;
  }

  if (parsed.name == "ordered") {
    OrderedCoordinator::Options o;
    o.suppress_idle_broadcasts = parse_nobeacon_only(parsed);
    pair.coordinator = std::make_unique<OrderedCoordinator>(k, o);
    pair.nodes.reserve(cluster.size());
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      pair.nodes.push_back(std::make_unique<OrderedNode>(k));
    }
    return pair;
  }

  if (parsed.name == "multi_k") {
    std::vector<std::size_t> ks{k};
    MultiKCoordinator::Options o;
    for (const auto& p : parsed.params) {
      if (p.key == "ks") ks = parse_ks(parsed, p);
      else if (p.key == "nobeacon") o.suppress_idle_broadcasts = parse_flag(p);
      else bad_param(parsed, p);
    }
    pair.coordinator = std::make_unique<MultiKCoordinator>(ks, o);
    pair.nodes.reserve(cluster.size());
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      pair.nodes.push_back(std::make_unique<MultiKNode>(ks));
    }
    return pair;
  }

  if (parsed.name == "recompute") {
    RecomputeCoordinator::Options o;
    o.suppress_idle_broadcasts = parse_nobeacon_only(parsed);
    pair.coordinator = std::make_unique<RecomputeCoordinator>(k, o);
    pair.nodes.reserve(cluster.size());
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      pair.nodes.push_back(std::make_unique<RecomputeNode>());
    }
    return pair;
  }

  throw std::invalid_argument("unknown monitor '" + parsed.name + "'");
}

std::pair<std::string, std::size_t> split_shards_param(std::string_view spec) {
  const ParsedSpec parsed = parse_spec(spec);
  std::size_t shards = 0;
  std::string rest = parsed.name;
  char sep = '?';
  for (const auto& p : parsed.params) {
    if (p.key == "shards") {
      const auto v = to_u64(p.value);
      if (!v || *v == 0) {
        throw std::invalid_argument("monitor '" + parsed.name +
                                    "': shards expects a positive integer, "
                                    "got '" +
                                    p.value + "'");
      }
      shards = static_cast<std::size_t>(*v);
      continue;
    }
    rest += sep;
    sep = ',';
    rest += p.key;
    if (!p.value.empty()) {
      rest += '=';
      rest += p.value;
    }
  }
  return {std::move(rest), shards};
}

bool is_known_monitor(std::string_view spec) noexcept {
  const std::size_t q = spec.find('?');
  const std::string_view name = spec.substr(0, q);
  for (const auto& known : all_monitor_names()) {
    if (known == name) return true;
  }
  return false;
}

const std::vector<std::string>& all_monitor_names() {
  static const std::vector<std::string> names{
      "topk_filter", "ordered", "slack",     "dominance", "recompute",
      "naive",       "naive_chg", "approx",  "multi_k"};
  return names;
}

}  // namespace topkmon::exp
