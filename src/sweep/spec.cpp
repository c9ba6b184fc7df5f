#include "sweep/spec.hpp"

#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>

#include "sweep/params.hpp"
#include "topology/builders.hpp"
#include "util/string_util.hpp"

namespace dagsched::sweep {

namespace {

// The parameter tables double as documentation of each family's knobs.
// Order matters: instances draw their parameters in exactly this order
// (see runner.cpp), so the tables are part of the determinism contract —
// append new parameters at the end, never reorder.
constexpr ParamDef kLayeredParams[] = {
    {"layers", {5, 8}, true},
    {"min_width", {2, 2}, true},
    {"max_width", {6, 6}, true},
    {"edge_probability", {0.25, 0.25}, false},
    {"skip_probability", {0.1, 0.1}, false},
    {"min_duration_us", {5, 5}, true},
    {"max_duration_us", {50, 50}, true},
    {"min_weight_us", {0, 0}, true},
    {"max_weight_us", {16, 16}, true},
};
constexpr ParamDef kGnpParams[] = {
    {"tasks", {40, 40}, true},
    {"edge_probability", {0.1, 0.1}, false},
    {"min_duration_us", {5, 5}, true},
    {"max_duration_us", {50, 50}, true},
    {"min_weight_us", {0, 0}, true},
    {"max_weight_us", {16, 16}, true},
};
constexpr ParamDef kForkJoinParams[] = {
    {"stages", {4, 4}, true},
    {"width", {6, 6}, true},
    {"fork_duration_us", {5, 5}, true},
    {"work_duration_us", {20, 20}, true},
    {"join_duration_us", {5, 5}, true},
    {"weight_us", {4, 4}, true},
};
constexpr ParamDef kOutTreeParams[] = {
    {"depth", {4, 4}, true},
    {"fanout", {3, 3}, true},
    {"duration_us", {15, 15}, true},
    {"weight_us", {4, 4}, true},
};
constexpr ParamDef kInTreeParams[] = {
    {"depth", {4, 4}, true},
    {"fanout", {3, 3}, true},
    {"duration_us", {15, 15}, true},
    {"weight_us", {4, 4}, true},
};
constexpr ParamDef kDiamondParams[] = {
    {"width", {8, 8}, true},
    {"source_duration_us", {5, 5}, true},
    {"middle_duration_us", {15, 15}, true},
    {"sink_duration_us", {5, 5}, true},
    {"weight_us", {4, 4}, true},
};
constexpr ParamDef kChainParams[] = {
    {"length", {10, 10}, true},
    {"duration_us", {15, 15}, true},
    {"weight_us", {4, 4}, true},
};
// Defaults mirror CommModel::paper_default() (sigma 7us, tau 9us).
constexpr ParamDef kCommParams[] = {
    {"comm_sigma_us", {7, 7}, true},
    {"comm_tau_us", {9, 9}, true},
};
// Defaults mirror FaultAblation (spec.hpp); all MTBFs zero = disabled.
constexpr ParamDef kFaultParams[] = {
    {"fault_machine_mtbf_us", {0, 0}, true},
    {"fault_machine_mttr_us", {200, 200}, true},
    {"fault_stall_mtbf_us", {0, 0}, true},
    {"fault_stall_us", {40, 40}, true},
    {"fault_link_mtbf_us", {0, 0}, true},
    {"fault_link_mttr_us", {150, 150}, true},
    {"fault_link_drop_prob", {1.0, 1.0}, false},
    {"fault_link_degrade_factor", {4, 4}, true},
    {"fault_msg_timeout_us", {400, 400}, true},
    {"fault_retry_backoff_us", {50, 50}, true},
};
// Defaults mirror ArrivalAblation (spec.hpp); zero count = offline.
constexpr ParamDef kArrivalParams[] = {
    {"arrival_count", {0, 0}, true},
    {"arrival_gap_us", {500, 500}, true},
    {"arrival_burst_prob", {0, 0}, false},
    {"arrival_burst_mult", {1, 1}, false},
    {"arrival_deadline_slack", {0, 0}, false},
    {"arrival_jitter", {0, 0}, false},
    {"arrival_weight_max", {1, 1}, false},
};

[[noreturn]] void fail(int line_number, const std::string& message) {
  throw std::invalid_argument("sweep spec line " +
                              std::to_string(line_number) + ": " + message);
}

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    std::size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i > start) tokens.emplace_back(line.substr(start, i - start));
  }
  return tokens;
}

double parse_number(const std::string& text, int line_number) {
  // std::stod's grammar and its error order (no number, then range, then
  // trailing bytes), read without the C locale.
  const ParsedReal parsed = parse_real(text);
  if (parsed.used == 0) fail(line_number, "bad number '" + text + "'");
  if (parsed.out_of_range) {
    fail(line_number, "number out of range '" + text + "'");
  }
  if (parsed.used != text.size()) {
    fail(line_number, "bad number '" + text + "'");
  }
  return parsed.value;
}

std::int64_t parse_integer(const std::string& text, int line_number) {
  double value = parse_number(text, line_number);
  if (value < -9.0e18 || value > 9.0e18) {
    fail(line_number, "integer out of range '" + text + "'");
  }
  auto integer = static_cast<std::int64_t>(value);
  if (static_cast<double>(integer) != value) {
    fail(line_number, "expected an integer, got '" + text + "'");
  }
  return integer;
}

std::uint64_t parse_u64(const std::string& text, int line_number) {
  try {
    std::size_t used = 0;
    std::uint64_t value = std::stoull(text, &used);
    if (used != text.size() || text[0] == '-') {
      fail(line_number, "bad unsigned integer '" + text + "'");
    }
    return value;
  } catch (const std::invalid_argument&) {
    fail(line_number, "bad unsigned integer '" + text + "'");
  } catch (const std::out_of_range&) {
    fail(line_number, "unsigned integer out of range '" + text + "'");
  }
}

ParamRange parse_range(const std::string& text, int line_number) {
  const auto colon = text.find(':');
  ParamRange range;
  if (colon == std::string::npos) {
    range.lo = range.hi = parse_number(text, line_number);
  } else {
    range.lo = parse_number(text.substr(0, colon), line_number);
    range.hi = parse_number(text.substr(colon + 1), line_number);
  }
  if (range.lo > range.hi) {
    fail(line_number, "range '" + text + "' has lo > hi");
  }
  return range;
}

const ParamDef* find_param(FamilyKind kind, const std::string& name) {
  for (const ParamDef& def : family_param_defs(kind)) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

FamilySpec parse_family(const std::vector<std::string>& tokens,
                        int line_number) {
  FamilySpec family;
  try {
    family.kind = family_kind_from_string(tokens[1]);
  } catch (const std::invalid_argument& error) {
    fail(line_number, error.what());
  }
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      fail(line_number, "expected key=value, got '" + tokens[i] + "'");
    }
    const std::string key = tokens[i].substr(0, eq);
    const std::string value = tokens[i].substr(eq + 1);
    if (key == "count") {
      family.count = static_cast<int>(parse_integer(value, line_number));
      continue;
    }
    const ParamDef* def = find_param(family.kind, key);
    if (def == nullptr) {
      fail(line_number, "family " + to_string(family.kind) +
                            " has no parameter '" + key + "'");
    }
    ParamRange range = parse_range(value, line_number);
    if (def->integer &&
        (range.lo != static_cast<std::int64_t>(range.lo) ||
         range.hi != static_cast<std::int64_t>(range.hi))) {
      fail(line_number, "parameter '" + key + "' takes integers");
    }
    for (const FamilyParam& existing : family.params) {
      if (existing.name == key) {
        fail(line_number, "duplicate parameter '" + key + "'");
      }
    }
    family.params.push_back({key, range});
  }
  return family;
}

/// Parses one policy token: `name` or `name(key=value,...)` (no spaces
/// inside the parentheses — the spec format tokenizes on whitespace).
/// Syntax and validation both live in the registry layer
/// (sched::parse_policy_call / config_for_call — the same path service
/// requests go through); this wrapper only re-raises with the line number.
PolicySpec parse_policy(const std::string& token, int line_number) {
  PolicySpec policy;
  try {
    sched::PolicyCall call = sched::parse_policy_call(token);
    policy.name = std::move(call.name);
    policy.args = std::move(call.args);
    // Run the factory too so semantic errors (chains=0, oracle=warp)
    // also carry the line number; defaults are always factory-valid, so
    // a failure here can only come from this line's overrides.  (The
    // policy_defaults lines are not merged yet — they may appear on any
    // later line — so validate() re-resolves the effective config.)
    sched::PolicyRegistry::instance().make(
        policy.name, sched::config_for_call({policy.name, policy.args}));
  } catch (const std::invalid_argument& error) {
    fail(line_number, error.what());
  }
  return policy;
}

/// The FaultAblation field behind one fault_param_defs() name; nullptr
/// for unknown keys.  Keep in sync with kFaultParams.
ParamRange* fault_range(FaultAblation& faults, const std::string& key) {
  if (key == "fault_machine_mtbf_us") return &faults.machine_mtbf_us;
  if (key == "fault_machine_mttr_us") return &faults.machine_mttr_us;
  if (key == "fault_stall_mtbf_us") return &faults.stall_mtbf_us;
  if (key == "fault_stall_us") return &faults.stall_us;
  if (key == "fault_link_mtbf_us") return &faults.link_mtbf_us;
  if (key == "fault_link_mttr_us") return &faults.link_mttr_us;
  if (key == "fault_link_drop_prob") return &faults.link_drop_prob;
  if (key == "fault_link_degrade_factor")
    return &faults.link_degrade_factor;
  if (key == "fault_msg_timeout_us") return &faults.msg_timeout_us;
  if (key == "fault_retry_backoff_us") return &faults.retry_backoff_us;
  return nullptr;
}

/// The ArrivalAblation field behind one arrival_param_defs() name; nullptr
/// for unknown keys.  Keep in sync with kArrivalParams.
ParamRange* arrival_range(ArrivalAblation& arrivals, const std::string& key) {
  if (key == "arrival_count") return &arrivals.count;
  if (key == "arrival_gap_us") return &arrivals.gap_us;
  if (key == "arrival_burst_prob") return &arrivals.burst_prob;
  if (key == "arrival_burst_mult") return &arrivals.burst_mult;
  if (key == "arrival_deadline_slack") return &arrivals.deadline_slack;
  if (key == "arrival_jitter") return &arrivals.jitter;
  if (key == "arrival_weight_max") return &arrivals.weight_max;
  return nullptr;
}

}  // namespace

std::span<const ParamDef> family_param_defs(FamilyKind kind) {
  switch (kind) {
    case FamilyKind::Layered:
      return kLayeredParams;
    case FamilyKind::Gnp:
      return kGnpParams;
    case FamilyKind::ForkJoin:
      return kForkJoinParams;
    case FamilyKind::OutTree:
      return kOutTreeParams;
    case FamilyKind::InTree:
      return kInTreeParams;
    case FamilyKind::Diamond:
      return kDiamondParams;
    case FamilyKind::Chain:
      return kChainParams;
  }
  throw std::invalid_argument("unknown family kind");
}

std::span<const ParamDef> comm_param_defs() { return kCommParams; }

std::span<const ParamDef> fault_param_defs() { return kFaultParams; }

std::span<const ParamDef> arrival_param_defs() { return kArrivalParams; }

std::string to_string(FamilyKind kind) {
  switch (kind) {
    case FamilyKind::Layered:
      return "layered";
    case FamilyKind::Gnp:
      return "gnp";
    case FamilyKind::ForkJoin:
      return "fork_join";
    case FamilyKind::OutTree:
      return "out_tree";
    case FamilyKind::InTree:
      return "in_tree";
    case FamilyKind::Diamond:
      return "diamond";
    case FamilyKind::Chain:
      return "chain";
  }
  return "?";
}

FamilyKind family_kind_from_string(const std::string& name) {
  if (name == "layered") return FamilyKind::Layered;
  if (name == "gnp") return FamilyKind::Gnp;
  if (name == "fork_join") return FamilyKind::ForkJoin;
  if (name == "out_tree") return FamilyKind::OutTree;
  if (name == "in_tree") return FamilyKind::InTree;
  if (name == "diamond") return FamilyKind::Diamond;
  if (name == "chain") return FamilyKind::Chain;
  throw std::invalid_argument("unknown graph family '" + name + "'");
}

std::string PolicySpec::canonical() const {
  return sched::PolicyCall{name, args}.canonical();
}

sched::PolicyConfig effective_policy_config(const SweepSpec& spec,
                                            const PolicySpec& policy) {
  sched::PolicyConfig config =
      sched::PolicyRegistry::instance().make_config(policy.name);
  // The policy_defaults line for this base name, then the per-policy
  // parenthesized overrides — later layers win.
  for (const PolicySpec& defaults : spec.policy_defaults) {
    if (defaults.name != policy.name) continue;
    for (const auto& [key, value] : defaults.args) {
      config.set(key, value);
    }
  }
  for (const auto& [key, value] : policy.args) {
    config.set(key, value);
  }
  return config;
}

bool CommAblation::is_paper_default() const {
  // Compare against the default-constructed knobs so the member
  // initializers in spec.hpp stay the single source of the defaults.
  const CommAblation defaults;
  return sigma_us.lo == defaults.sigma_us.lo &&
         sigma_us.hi == defaults.sigma_us.hi &&
         tau_us.lo == defaults.tau_us.lo &&
         tau_us.hi == defaults.tau_us.hi && send_cpu == defaults.send_cpu;
}

ParamRange FamilySpec::param(const std::string& name) const {
  for (const FamilyParam& override_param : params) {
    if (override_param.name == name) return override_param.range;
  }
  const ParamDef* def = find_param(kind, name);
  if (def == nullptr) {
    throw std::invalid_argument("family " + to_string(kind) +
                                " has no parameter '" + name + "'");
  }
  return def->range;
}

int SweepSpec::num_instances() const {
  int per_topology = 0;
  for (const FamilySpec& family : families) per_topology += family.count;
  return per_topology * static_cast<int>(topologies.size());
}

void SweepSpec::validate() const {
  if (families.empty()) {
    throw std::invalid_argument("sweep spec: no graph families");
  }
  if (topologies.empty()) {
    throw std::invalid_argument("sweep spec: no topologies");
  }
  if (policies.empty()) {
    throw std::invalid_argument("sweep spec: no policies");
  }
  if (threads < 0) {
    throw std::invalid_argument("sweep spec: negative thread count");
  }
  if (time_budget_ms < 0) {
    throw std::invalid_argument("sweep spec: negative time_budget_ms");
  }
  if (comm.sigma_us.lo < 0 || comm.tau_us.lo < 0) {
    throw std::invalid_argument("sweep spec: negative comm overhead");
  }
  if (comm.send_cpu.empty()) {
    throw std::invalid_argument("sweep spec: empty comm_send_cpu set");
  }
  for (std::size_t i = 0; i < comm.send_cpu.size(); ++i) {
    for (std::size_t j = i + 1; j < comm.send_cpu.size(); ++j) {
      if (comm.send_cpu[i] == comm.send_cpu[j]) {
        throw std::invalid_argument(
            "sweep spec: duplicate comm_send_cpu mode " +
            dagsched::to_string(comm.send_cpu[i]));
      }
    }
  }
  if (!comm_enabled && !comm.is_paper_default()) {
    throw std::invalid_argument(
        "sweep spec: comm_sigma_us/comm_tau_us/comm_send_cpu have no "
        "effect with 'comm off'");
  }
  if (faults.machine_mtbf_us.lo < 0 || faults.stall_mtbf_us.lo < 0 ||
      faults.link_mtbf_us.lo < 0) {
    throw std::invalid_argument("sweep spec: negative fault MTBF");
  }
  if (faults.machine_mttr_us.lo <= 0 || faults.link_mttr_us.lo <= 0 ||
      faults.stall_us.lo <= 0) {
    throw std::invalid_argument(
        "sweep spec: fault repair/stall durations must be positive");
  }
  if (faults.link_drop_prob.lo < 0 || faults.link_drop_prob.hi > 1) {
    throw std::invalid_argument(
        "sweep spec: fault_link_drop_prob must stay in [0, 1]");
  }
  if (faults.link_degrade_factor.lo < 1) {
    throw std::invalid_argument(
        "sweep spec: fault_link_degrade_factor must be >= 1");
  }
  if (faults.msg_timeout_us.lo <= 0 || faults.retry_backoff_us.lo <= 0) {
    throw std::invalid_argument(
        "sweep spec: fault_msg_timeout_us/fault_retry_backoff_us must be "
        "positive");
  }
  if (faults.max_retries < 0) {
    throw std::invalid_argument("sweep spec: negative fault_max_retries");
  }
  if (!comm_enabled && faults.link_mtbf_us.hi > 0) {
    throw std::invalid_argument(
        "sweep spec: fault_link_mtbf_us has no effect with 'comm off' "
        "(there are no messages to drop)");
  }
  if (arrivals.count.lo < 0) {
    throw std::invalid_argument("sweep spec: negative arrival_count");
  }
  if (arrivals.enabled() && arrivals.count.lo < 1) {
    throw std::invalid_argument(
        "sweep spec: arrival_count range must stay >= 1 once arrivals "
        "are enabled (a zero draw would silently fall back to an offline "
        "instance)");
  }
  if (arrivals.enabled() && faults.enabled()) {
    throw std::invalid_argument(
        "sweep spec: arrival_* and fault_* ablations cannot be combined "
        "— run one scenario axis per sweep");
  }
  if (arrivals.gap_us.lo <= 0) {
    throw std::invalid_argument(
        "sweep spec: arrival_gap_us must be positive");
  }
  if (arrivals.burst_prob.lo < 0 || arrivals.burst_prob.hi > 1) {
    throw std::invalid_argument(
        "sweep spec: arrival_burst_prob must stay in [0, 1]");
  }
  if (arrivals.burst_mult.lo < 1) {
    throw std::invalid_argument(
        "sweep spec: arrival_burst_mult must be >= 1");
  }
  if (arrivals.deadline_slack.lo < 0) {
    throw std::invalid_argument(
        "sweep spec: negative arrival_deadline_slack");
  }
  if (arrivals.jitter.lo < 0 || arrivals.jitter.hi >= 1) {
    throw std::invalid_argument(
        "sweep spec: arrival_jitter must stay in [0, 1)");
  }
  if (arrivals.weight_max.lo < 1) {
    throw std::invalid_argument(
        "sweep spec: arrival_weight_max must be >= 1");
  }
  if (arrivals.enabled()) {
    // A streamed scenario hands tasks to the policy as their workflows
    // arrive; offline planners would schedule tasks that have not arrived
    // yet, so only `online`-capable registry policies are accepted.
    for (const PolicySpec& policy : policies) {
      const sched::PolicyDescriptor& descriptor =
          sched::PolicyRegistry::instance().descriptor(policy.name);
      if (!descriptor.caps.online) {
        throw std::invalid_argument(
            "sweep spec: policy '" + policy.name +
            "' is not online-capable; arrival_* sweeps accept only "
            "policies whose capability string includes 'online' (see "
            "`sweep --list-policies`)");
      }
    }
  }
  for (const FamilySpec& family : families) {
    if (family.count <= 0) {
      throw std::invalid_argument("sweep spec: family " +
                                  to_string(family.kind) +
                                  " has nonpositive count");
    }
  }
  // Identical policy lines would make the ranking ambiguous; the same
  // base policy with different hyperparameters is a legitimate ablation.
  for (std::size_t i = 0; i < policies.size(); ++i) {
    for (std::size_t j = i + 1; j < policies.size(); ++j) {
      if (policies[i].canonical() == policies[j].canonical()) {
        throw std::invalid_argument("sweep spec: duplicate policy " +
                                    policies[i].canonical());
      }
    }
  }
  // policy_defaults lines: at most one per base name, and each must
  // resolve through the registry on its own.
  for (std::size_t i = 0; i < policy_defaults.size(); ++i) {
    for (std::size_t j = i + 1; j < policy_defaults.size(); ++j) {
      if (policy_defaults[i].name == policy_defaults[j].name) {
        throw std::invalid_argument(
            "sweep spec: duplicate policy_defaults for '" +
            policy_defaults[i].name + "'");
      }
    }
    sched::PolicyConfig config = sched::PolicyRegistry::instance().make_config(
        policy_defaults[i].name);
    for (const auto& [key, value] : policy_defaults[i].args) {
      config.set(key, value);
    }
  }
  // Resolve every policy through the registry — name, config keys and
  // factory-level semantic checks — so a typo fails before any work is
  // done, exactly like the topology resolution below.
  for (const PolicySpec& policy : policies) {
    sched::PolicyRegistry::instance().make(
        policy.name, effective_policy_config(*this, policy));
  }
  // Resolve every topology now so a typo fails before any work is done.
  for (const std::string& spec : topologies) {
    topo::by_name(spec);
  }
}

SweepSpec parse_spec(const std::string& text) {
  SweepSpec spec;
  std::istringstream stream(text);
  std::string raw_line;
  int line_number = 0;
  while (std::getline(stream, raw_line)) {
    ++line_number;
    const auto hash = raw_line.find('#');
    if (hash != std::string::npos) raw_line.erase(hash);
    const std::vector<std::string> tokens = tokenize(raw_line);
    if (tokens.empty()) continue;
    const std::string& key = tokens[0];

    if (key == "family") {
      if (tokens.size() < 2) fail(line_number, "family needs a kind");
      spec.families.push_back(parse_family(tokens, line_number));
      continue;
    }
    if (tokens.size() != 2) {
      if (key == "policy" && tokens.size() > 2) {
        fail(line_number,
             "policy must be one token: name(key=value,...) with no "
             "spaces inside the parentheses");
      }
      fail(line_number, "expected '" + key + " <value>'");
    }
    const std::string& value = tokens[1];
    if (key == "seed") {
      spec.seed = parse_u64(value, line_number);
    } else if (key == "threads") {
      spec.threads = static_cast<int>(parse_integer(value, line_number));
    } else if (key == "comm") {
      if (value == "paper") {
        spec.comm_enabled = true;
      } else if (value == "off") {
        spec.comm_enabled = false;
      } else {
        fail(line_number, "comm must be 'paper' or 'off'");
      }
    } else if (key == "comm_sigma_us" || key == "comm_tau_us") {
      const ParamRange range = parse_range(value, line_number);
      if (range.lo < 0) fail(line_number, key + " must be >= 0");
      if (range.lo != static_cast<std::int64_t>(range.lo) ||
          range.hi != static_cast<std::int64_t>(range.hi)) {
        fail(line_number, key + " takes integer microseconds");
      }
      (key == "comm_sigma_us" ? spec.comm.sigma_us : spec.comm.tau_us) =
          range;
    } else if (key == "comm_send_cpu") {
      spec.comm.send_cpu.clear();
      for (const std::string& mode : split(value, ',')) {
        try {
          spec.comm.send_cpu.push_back(send_cpu_from_string(mode));
        } catch (const std::invalid_argument& error) {
          fail(line_number, error.what());
        }
      }
    } else if (key == "topology") {
      spec.topologies.push_back(value);
    } else if (key == "policy") {
      spec.policies.push_back(parse_policy(value, line_number));
    } else if (key == "policy_defaults") {
      PolicySpec defaults = parse_policy(value, line_number);
      if (defaults.args.empty()) {
        fail(line_number,
             "policy_defaults needs at least one key: policy_defaults " +
                 defaults.name + "(key=value,...)");
      }
      spec.policy_defaults.push_back(std::move(defaults));
    } else if (key.rfind("fault_", 0) == 0) {
      if (key == "fault_max_retries") {
        spec.faults.max_retries =
            static_cast<int>(parse_integer(value, line_number));
      } else {
        ParamRange* range = fault_range(spec.faults, key);
        if (range == nullptr) fail(line_number, "unknown key '" + key + "'");
        const ParamDef* def = nullptr;
        for (const ParamDef& d : fault_param_defs()) {
          if (key == d.name) def = &d;
        }
        *range = parse_range(value, line_number);
        if (def != nullptr && def->integer &&
            (range->lo != static_cast<std::int64_t>(range->lo) ||
             range->hi != static_cast<std::int64_t>(range->hi))) {
          fail(line_number, key + " takes integer microseconds");
        }
      }
    } else if (key.rfind("arrival_", 0) == 0) {
      ParamRange* range = arrival_range(spec.arrivals, key);
      if (range == nullptr) fail(line_number, "unknown key '" + key + "'");
      const ParamDef* def = nullptr;
      for (const ParamDef& d : arrival_param_defs()) {
        if (key == d.name) def = &d;
      }
      *range = parse_range(value, line_number);
      if (def != nullptr && def->integer &&
          (range->lo != static_cast<std::int64_t>(range->lo) ||
           range->hi != static_cast<std::int64_t>(range->hi))) {
        fail(line_number, key + " takes integers");
      }
    } else if (key == "time_budget_ms") {
      spec.time_budget_ms = parse_number(value, line_number);
      if (spec.time_budget_ms < 0) {
        fail(line_number, "time_budget_ms must be >= 0");
      }
    } else {
      fail(line_number, "unknown key '" + key + "'");
    }
  }
  spec.validate();
  return spec;
}

SweepSpec load_spec_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("cannot open sweep spec '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_spec(buffer.str());
}

}  // namespace dagsched::sweep
