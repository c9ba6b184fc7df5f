#include "sched/registry.hpp"

#include <charconv>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "core/global_annealer.hpp"
#include "core/incremental_cost.hpp"
#include "core/sa_scheduler.hpp"
#include "sched/dagprio.hpp"
#include "sched/etf.hpp"
#include "sched/fixed_list.hpp"
#include "sched/heft.hpp"
#include "sched/hlf.hpp"
#include "sched/pinned.hpp"
#include "sched/random_policy.hpp"
#include "sched/repin.hpp"
#include "util/require.hpp"
#include "util/string_util.hpp"

namespace dagsched::sched {

namespace {

const char* kind_name(ConfigValueKind kind) {
  switch (kind) {
    case ConfigValueKind::Int:
      return "integer";
    case ConfigValueKind::Real:
      return "real";
    case ConfigValueKind::String:
      return "string";
  }
  return "?";
}

// Both readers accept what std::stoll/std::stod did (leading whitespace,
// a '+', and for reals "inf", "nan" and "0x" hex floats) but without the C
// locale: policy calls arrive on every schedd request.
std::int64_t parse_config_int(const std::string& policy,
                              const std::string& key,
                              const std::string& value) {
  const ParsedInt parsed = parse_int64(value);
  if (parsed.used == 0 || parsed.used != value.size() ||
      parsed.out_of_range) {
    throw std::invalid_argument("policy '" + policy + "': config key '" +
                                key + "' takes an integer, got '" + value +
                                "'");
  }
  return parsed.value;
}

double parse_config_real(const std::string& policy, const std::string& key,
                         const std::string& value) {
  const ParsedReal parsed = parse_real(value);
  if (parsed.used == 0 || parsed.used != value.size() ||
      parsed.out_of_range) {
    throw std::invalid_argument("policy '" + policy + "': config key '" +
                                key + "' takes a real number, got '" +
                                value + "'");
  }
  return parsed.value;
}

[[noreturn]] void fail_policy(const std::string& policy,
                              const std::string& message) {
  throw std::invalid_argument("policy '" + policy + "': " + message);
}

std::int64_t int_at_least(const PolicyConfig& config, const std::string& key,
                          std::int64_t minimum) {
  const std::int64_t value = config.get_int(key);
  if (value < minimum) {
    fail_policy(config.policy(), "config key '" + key + "' must be >= " +
                                     std::to_string(minimum) + ", got " +
                                     std::to_string(value));
  }
  return value;
}

/// Parses the shared `on_fault` repair-strategy key.  `allow_replan` is
/// false for policies whose plan is a mapping, not a recomputable
/// schedule (gsa).
FaultResponse fault_response_from_config(const PolicyConfig& config,
                                         bool allow_replan) {
  const std::string& value = config.get_string("on_fault");
  if (value == "wait") return FaultResponse::Wait;
  if (value == "repin") return FaultResponse::Repin;
  if (value == "replan" && allow_replan) return FaultResponse::Replan;
  fail_policy(config.policy(),
              std::string("config key 'on_fault' must be ") +
                  (allow_replan ? "'wait', 'repin' or 'replan'"
                                : "'wait' or 'repin'") +
                  ", got '" + value + "'");
}

}  // namespace

// ------------------------------------------------------------ PolicyConfig

bool PolicyConfig::has_key(const std::string& key) const {
  for (const Entry& entry : entries_) {
    if (entry.def.name == key) return true;
  }
  return false;
}

PolicyConfig::Entry* PolicyConfig::find_entry(const std::string& key) {
  for (Entry& entry : entries_) {
    if (entry.def.name == key) return &entry;
  }
  return nullptr;
}

void PolicyConfig::fail_unknown_key(const std::string& key) const {
  std::string known;
  for (const Entry& entry : entries_) {
    if (!known.empty()) known += ", ";
    known += entry.def.name;
  }
  throw std::invalid_argument(
      "policy '" + policy_ + "' has no config key '" + key + "'" +
      (known.empty() ? " (it takes no configuration)"
                     : " (known keys: " + known + ")"));
}

void PolicyConfig::set(const std::string& key, const std::string& value) {
  Entry* entry = find_entry(key);
  if (entry == nullptr) fail_unknown_key(key);
  switch (entry->def.kind) {
    case ConfigValueKind::Int:
      entry->int_value = parse_config_int(policy_, key, value);
      break;
    case ConfigValueKind::Real:
      entry->real_value = parse_config_real(policy_, key, value);
      break;
    case ConfigValueKind::String:
      entry->string_value = value;
      break;
  }
}

void PolicyConfig::set_int(const std::string& key, std::int64_t value) {
  Entry* entry = find_entry(key);
  if (entry == nullptr) fail_unknown_key(key);
  if (entry->def.kind != ConfigValueKind::Int) {
    fail_policy(policy_, "config key '" + key + "' is " +
                             kind_name(entry->def.kind) + "-valued");
  }
  entry->int_value = value;
}

void PolicyConfig::set_real(const std::string& key, double value) {
  Entry* entry = find_entry(key);
  if (entry == nullptr) fail_unknown_key(key);
  if (entry->def.kind != ConfigValueKind::Real) {
    fail_policy(policy_, "config key '" + key + "' is " +
                             kind_name(entry->def.kind) + "-valued");
  }
  entry->real_value = value;
}

void PolicyConfig::set_string(const std::string& key, std::string value) {
  Entry* entry = find_entry(key);
  if (entry == nullptr) fail_unknown_key(key);
  if (entry->def.kind != ConfigValueKind::String) {
    fail_policy(policy_, "config key '" + key + "' is " +
                             kind_name(entry->def.kind) + "-valued");
  }
  entry->string_value = std::move(value);
}

const PolicyConfig::Entry& PolicyConfig::entry(const std::string& key,
                                               ConfigValueKind kind) const {
  for (const Entry& entry : entries_) {
    if (entry.def.name != key) continue;
    if (entry.def.kind != kind) {
      throw std::logic_error("policy '" + policy_ + "': config key '" + key +
                             "' is " + kind_name(entry.def.kind) +
                             "-valued, read as " + kind_name(kind));
    }
    return entry;
  }
  throw std::logic_error("policy '" + policy_ + "' has no config key '" +
                         key + "'");
}

std::int64_t PolicyConfig::get_int(const std::string& key) const {
  return entry(key, ConfigValueKind::Int).int_value;
}

double PolicyConfig::get_real(const std::string& key) const {
  return entry(key, ConfigValueKind::Real).real_value;
}

const std::string& PolicyConfig::get_string(const std::string& key) const {
  return entry(key, ConfigValueKind::String).string_value;
}

// ---------------------------------------------------------- PolicyRegistry

void PolicyRegistry::add(PolicyDescriptor descriptor) {
  if (descriptor.name.empty()) {
    throw std::invalid_argument("policy registration: empty name");
  }
  if (find(descriptor.name) != nullptr) {
    throw std::invalid_argument("policy registration: duplicate name '" +
                                descriptor.name + "'");
  }
  for (std::size_t i = 0; i < descriptor.keys.size(); ++i) {
    for (std::size_t j = i + 1; j < descriptor.keys.size(); ++j) {
      if (descriptor.keys[i].name == descriptor.keys[j].name) {
        throw std::invalid_argument(
            "policy registration: '" + descriptor.name +
            "' declares duplicate config key '" + descriptor.keys[i].name +
            "'");
      }
    }
  }
  entries_.push_back(std::move(descriptor));
}

const PolicyDescriptor* PolicyRegistry::find(const std::string& name) const {
  for (const PolicyDescriptor& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

const PolicyDescriptor& PolicyRegistry::descriptor(
    const std::string& name) const {
  const PolicyDescriptor* entry = find(name);
  if (entry != nullptr) return *entry;
  std::string known;
  for (const PolicyDescriptor& e : entries_) {
    if (e.factory == nullptr) continue;
    if (!known.empty()) known += ", ";
    known += e.name;
  }
  throw std::invalid_argument("unknown policy '" + name +
                              "' (known policies: " + known + ")");
}

std::vector<std::string> PolicyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const PolicyDescriptor& entry : entries_) {
    if (entry.factory != nullptr) out.push_back(entry.name);
  }
  return out;
}

PolicyConfig PolicyRegistry::make_config(const std::string& name) const {
  const PolicyDescriptor& entry = descriptor(name);
  PolicyConfig config;
  config.policy_ = entry.name;
  config.entries_.reserve(entry.keys.size());
  for (const ConfigKeyDef& def : entry.keys) {
    PolicyConfig::Entry e;
    e.def = def;
    config.entries_.push_back(std::move(e));
    // Route the default through set() so a malformed registration default
    // fails loudly the first time the config is built, not at first use.
    config.set(def.name, def.default_value);
  }
  return config;
}

std::unique_ptr<ScheduledPolicy> PolicyRegistry::make(
    const std::string& name, const PolicyConfig& config) const {
  const PolicyDescriptor& entry = descriptor(name);
  if (entry.factory == nullptr) {
    throw std::invalid_argument(
        "policy '" + name +
        "' is descriptor-only and cannot be built from a PolicyConfig "
        "(construct it directly, e.g. sched::PinnedScheduler needs an "
        "explicit mapping)");
  }
  if (config.policy() != name) {
    throw std::invalid_argument("policy '" + name +
                                "': config was built for policy '" +
                                config.policy() + "'");
  }
  return entry.factory(config);
}

std::unique_ptr<ScheduledPolicy> PolicyRegistry::make(
    const std::string& name) const {
  return make(name, make_config(name));
}

const PolicyRegistry& PolicyRegistry::instance() {
  static const PolicyRegistry registry = [] {
    PolicyRegistry r;
    register_builtin_policies(r);
    return r;
  }();
  return registry;
}

// -------------------------------------------------------- builtin policies

namespace {

/// Adapter for online policies: one sim::SchedulingPolicy instance driven
/// end to end by sim::simulate.
class OnlinePolicy final : public ScheduledPolicy {
 public:
  OnlinePolicy(std::string name, std::unique_ptr<sim::SchedulingPolicy> impl)
      : name_(std::move(name)), impl_(std::move(impl)) {}

  std::string name() const override { return name_; }

  PolicyRunOutcome run(const TaskGraph& graph, const Topology& topology,
                       const CommModel& comm,
                       const PolicyRunOptions& options) override {
    PolicyRunOutcome outcome;
    outcome.result = sim::simulate(graph, topology, comm, *impl_, options.sim);
    outcome.predicted_makespan = impl_->planned_makespan();
    return outcome;
  }

  sim::SchedulingPolicy* online_impl() override { return impl_.get(); }

 private:
  std::string name_;
  std::unique_ptr<sim::SchedulingPolicy> impl_;
};

/// The whole-schedule annealer as a ScheduledPolicy: anneal_global finds
/// the mapping, whose reported makespan *is* the pinned-replay makespan —
/// a second simulation is only run when the caller wants a trace.
class GsaPolicy final : public ScheduledPolicy {
 public:
  GsaPolicy(sa::GlobalAnnealOptions options, FaultResponse on_fault)
      : options_(options), on_fault_(on_fault) {}

  std::string name() const override { return "gsa"; }

  PolicyRunOutcome run(const TaskGraph& graph, const Topology& topology,
                       const CommModel& comm,
                       const PolicyRunOptions& run_options) override {
    sa::GlobalAnnealOptions options = options_;
    if (run_options.time_budget_ms > 0) {
      options.wall_budget_seconds = run_options.time_budget_ms / 1000.0;
    }
    // Under fault injection the annealer prices moves against the faulty
    // environment (same spec, same timelines), so the plan it returns is
    // optimized for the crashes it will actually encounter.
    const sim::FaultSpec* faults = run_options.sim.faults;
    const bool faults_active = faults != nullptr && faults->active();
    options.faults = faults_active ? faults : nullptr;
    const sa::GlobalAnnealResult annealed =
        sa::anneal_global(graph, topology, comm, options);
    PolicyRunOutcome outcome;
    outcome.timed_out = annealed.timed_out;
    outcome.predicted_makespan = annealed.makespan;
    // A replay is needed for a trace, and under faults also to surface
    // the retry/restart counters and the failure outcome (the annealed
    // makespan alone carries neither).
    if (run_options.sim.record_trace || faults_active) {
      if (faults_active && on_fault_ == FaultResponse::Repin) {
        RepinScheduler replay(annealed.mapping);
        outcome.result =
            sim::simulate(graph, topology, comm, replay, run_options.sim);
      } else {
        PinnedScheduler replay(annealed.mapping);
        outcome.result =
            sim::simulate(graph, topology, comm, replay, run_options.sim);
        // The annealed makespan *is* a pinned-replay makespan, so the two
        // must agree — except when the best mapping still fails (retry
        // exhaustion), where the annealer reported a penalty cost instead.
        if (!outcome.result.failed) {
          require(outcome.result.makespan == annealed.makespan,
                  "gsa: pinned replay diverged from the annealed makespan");
        }
      }
    } else {
      outcome.result.makespan = annealed.makespan;
      outcome.result.placement = annealed.mapping;
    }
    return outcome;
  }

 private:
  sa::GlobalAnnealOptions options_;
  FaultResponse on_fault_;
};

std::unique_ptr<ScheduledPolicy> make_online(
    const std::string& name, std::unique_ptr<sim::SchedulingPolicy> impl) {
  return std::make_unique<OnlinePolicy>(name, std::move(impl));
}

}  // namespace

void register_builtin_policies(PolicyRegistry& registry) {
  // sa's schedule-length defaults mirror the underlying option structs
  // (CoolingSchedule / AnnealOptions).  gsa deliberately diverges from
  // GlobalAnnealOptions on two keys, matching the sweep-spec defaults
  // instead: chains = 2 because a host-resolved count (num_chains = 0)
  // would make registry-built runs machine-dependent, and max_steps = 24
  // (vs the struct's 60) because registry construction is the batch
  // comparison path, where thousand-instance sweeps need the short
  // schedule.  Callers wanting the long interactive schedule set
  // max_steps explicitly or use anneal_global directly.
  registry.add(
      {"sa",
       "staged packet annealer (the paper's scheduler, eqs. 3-6)",
       {.deterministic = false, .uses_rng = true},
       {{"max_steps", ConfigValueKind::Int, "60",
         "temperature steps per packet"},
        {"moves", ConfigValueKind::Int, "0",
         "proposed moves per temperature step (0 = auto)"},
        {"wb", ConfigValueKind::Real, "0.5",
         "load-balance cost weight; wc = 1 - wb"},
        {"cooling", ConfigValueKind::String, "geometric",
         "schedule: geometric | linear | logarithmic | constant"},
        {"t0", ConfigValueKind::Real, "2",
         "initial temperature (normalized-cost units)"},
        {"init", ConfigValueKind::String, "highest_level",
         "initial packet mapping: highest_level | random"}},
       [](const PolicyConfig& config) {
         sa::SaSchedulerOptions options;
         options.anneal.cooling.max_steps =
             static_cast<int>(int_at_least(config, "max_steps", 1));
         options.anneal.moves_per_temperature =
             static_cast<int>(int_at_least(config, "moves", 0));
         const double wb = config.get_real("wb");
         if (wb < 0.0 || wb > 1.0) {
           fail_policy(config.policy(), "config key 'wb' must be in [0, 1]");
         }
         options.anneal.wb = wb;
         options.anneal.wc = 1.0 - wb;
         try {
           options.anneal.cooling.kind =
               sa::cooling_kind_from_string(config.get_string("cooling"));
         } catch (const std::invalid_argument& error) {
           fail_policy(config.policy(), error.what());
         }
         const double t0 = config.get_real("t0");
         if (t0 <= 0.0) {
           fail_policy(config.policy(), "config key 't0' must be positive");
         }
         options.anneal.cooling.t0 = t0;
         const std::string& init = config.get_string("init");
         if (init == "highest_level") {
           options.anneal.init = sa::InitKind::HighestLevel;
         } else if (init == "random") {
           options.anneal.init = sa::InitKind::Random;
         } else {
           fail_policy(config.policy(),
                       "config key 'init' must be 'highest_level' or "
                       "'random', got '" +
                           init + "'");
         }
         options.seed = config.seed;
         return make_online("sa",
                            std::make_unique<sa::SaScheduler>(options));
       }});

  registry.add(
      {"gsa",
       "global whole-schedule annealer, exact simulated-makespan cost",
       {.deterministic = false,
        .uses_rng = true,
        .offline_plan = true,
        .replan_on_fault = true},
       {{"chains", ConfigValueKind::Int, "2",
         "independent annealing chains (explicit, host-independent)"},
        {"max_steps", ConfigValueKind::Int, "24",
         "temperature steps per chain"},
        {"moves", ConfigValueKind::Int, "0",
         "proposed moves per temperature step (0 = auto)"},
        {"patience", ConfigValueKind::Int, "20",
         "early stop after this many stale temperature steps"},
        {"oracle", ConfigValueKind::String, "auto",
         "move-pricing oracle: auto | incremental | full"},
        {"on_fault", ConfigValueKind::String, "wait",
         "crash repair for the replayed mapping: wait | repin"}},
       [](const PolicyConfig& config) {
         sa::GlobalAnnealOptions options;
         options.cooling.max_steps =
             static_cast<int>(int_at_least(config, "max_steps", 1));
         options.num_chains =
             static_cast<int>(int_at_least(config, "chains", 1));
         options.moves_per_temperature =
             static_cast<int>(int_at_least(config, "moves", 0));
         options.patience =
             static_cast<int>(int_at_least(config, "patience", 1));
         try {
           options.oracle =
               sa::cost_oracle_kind_from_string(config.get_string("oracle"));
         } catch (const std::invalid_argument& error) {
           fail_policy(config.policy(), error.what());
         }
         options.seed = config.seed;
         return std::make_unique<GsaPolicy>(
             options,
             fault_response_from_config(config, /*allow_replan=*/false));
       }});

  registry.add({"hlf",
                "Highest Level First, first-idle placement (the paper's "
                "baseline)",
                {.deterministic = true,
                 .stateless_per_epoch = true,
                 .pure_decision = true,
                 .online = true},
                {},
                [](const PolicyConfig&) {
                  return make_online("hlf", std::make_unique<HlfScheduler>(
                                                HlfPlacement::FirstIdle));
                }});

  registry.add(
      {"hlf-mincomm",
       "HLF with communication-aware min-cost placement (ablation)",
       {.deterministic = true, .stateless_per_epoch = true, .online = true},
       {},
       [](const PolicyConfig&) {
         return make_online("hlf-mincomm", std::make_unique<HlfScheduler>(
                                               HlfPlacement::MinComm));
       }});

  registry.add({"etf",
                "earliest (estimated) start time first greedy",
                {.deterministic = true,
                 .stateless_per_epoch = true,
                 .online = true},
                {},
                [](const PolicyConfig&) {
                  return make_online("etf",
                                     std::make_unique<EtfScheduler>());
                }});

  registry.add(
      {"list-hlf",
       "Graham fixed-list scheduling with the HLF priority order",
       {.deterministic = true,
        .stateless_per_epoch = true,
        .pure_decision = true},
       {},
       [](const PolicyConfig&) {
         // The priority list depends on the graph; bind it at run start.
         class ListHlfPolicy final : public ScheduledPolicy {
          public:
           std::string name() const override { return "list-hlf"; }
           PolicyRunOutcome run(const TaskGraph& graph,
                                const Topology& topology,
                                const CommModel& comm,
                                const PolicyRunOptions& options) override {
             FixedListScheduler impl(hlf_priority_list(graph));
             PolicyRunOutcome outcome;
             outcome.result =
                 sim::simulate(graph, topology, comm, impl, options.sim);
             return outcome;
           }
         };
         return std::make_unique<ListHlfPolicy>();
       }});

  const auto heft_factory = [](const PolicyConfig& config) {
    const std::string& ranking = config.get_string("ranking");
    HeftVariant variant;
    if (ranking == "heft") {
      variant = HeftVariant::Heft;
    } else if (ranking == "peft") {
      variant = HeftVariant::Peft;
    } else {
      fail_policy(config.policy(),
                  "config key 'ranking' must be 'heft' or 'peft', got '" +
                      ranking + "'");
    }
    return make_online(
        config.policy(),
        std::make_unique<HeftScheduler>(
            variant, fault_response_from_config(config,
                                                /*allow_replan=*/true)));
  };
  const ConfigKeyDef heft_on_fault_key{
      "on_fault", ConfigValueKind::String, "wait",
      "crash repair for the plan: wait | repin | replan"};
  registry.add({"heft",
                "HEFT rank-u + insertion-based EFT offline plan",
                {.deterministic = true,
                 .stateless_per_epoch = true,
                 .offline_plan = true,
                 .replan_on_fault = true},
                {{"ranking", ConfigValueKind::String, "heft",
                  "priority rule: heft (rank-u) | peft (optimistic cost "
                  "table)"},
                 heft_on_fault_key},
                heft_factory});
  registry.add({"peft",
                "PEFT optimistic-cost-table variant of HEFT",
                {.deterministic = true,
                 .stateless_per_epoch = true,
                 .offline_plan = true,
                 .replan_on_fault = true},
                {{"ranking", ConfigValueKind::String, "peft",
                  "priority rule: heft (rank-u) | peft (optimistic cost "
                  "table)"},
                 heft_on_fault_key},
                heft_factory});

  registry.add(
      {"random",
       "uniformly random assignments (sanity floor)",
       {.deterministic = false, .uses_rng = true, .online = true},
       {},
       [](const PolicyConfig& config) {
         return make_online(
             "random", std::make_unique<RandomScheduler>(config.seed));
       }});

  registry.add(
      {"dagprio",
       "online dag-priority scorer: remaining CP + slack + age weights",
       {.deterministic = true, .stateless_per_epoch = true, .online = true},
       {{"w_cp", ConfigValueKind::Real, "1",
         "weight of the remaining-critical-path level (us terms)"},
        {"w_slack", ConfigValueKind::Real, "1",
         "weight of the deadline slack (tight workflows score higher)"},
        {"w_age", ConfigValueKind::Real, "0.1",
         "weight of the workflow age (anti-starvation)"}},
       [](const PolicyConfig& config) {
         const double w_cp = config.get_real("w_cp");
         const double w_slack = config.get_real("w_slack");
         const double w_age = config.get_real("w_age");
         if (w_cp < 0 || w_slack < 0 || w_age < 0) {
           fail_policy(config.policy(),
                       "score weights w_cp/w_slack/w_age must be >= 0");
         }
         return make_online("dagprio", std::make_unique<DagPrioScheduler>(
                                           w_cp, w_slack, w_age));
       }});

  // Descriptor-only: the pinned replay policy is not a sweep-selectable
  // algorithm (it needs an explicit mapping), but its capability row is
  // what the global annealer consults to decide oracle eligibility —
  // IncrementalReplay's divergence walk re-evaluates the replay policy's
  // decision rule from (ready, idle, mapping, levels), which is sound
  // precisely because the pinned decision is a pure function of those
  // inputs (see sched/pinned.hpp and core/incremental_cost.hpp).
  registry.add({"pinned",
                "static-mapping replay policy (internal; needs a mapping)",
                {.deterministic = true,
                 .stateless_per_epoch = true,
                 .pure_decision = true},
                {},
                nullptr});
}

// --------------------------------------------- call syntax + listing text

std::string PolicyCall::canonical() const {
  if (args.empty()) return name;
  std::string out = name + "(";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ",";
    out += args[i].first + "=" + args[i].second;
  }
  out += ")";
  return out;
}

PolicyCall parse_policy_call(const std::string& token) {
  PolicyCall call;
  const auto open = token.find('(');
  if (open == std::string::npos) {
    call.name = token;
  } else {
    if (token.back() != ')') {
      throw std::invalid_argument("policy '" + token +
                                  "' has unbalanced parentheses");
    }
    call.name = token.substr(0, open);
    const std::string inner = token.substr(open + 1, token.size() - open - 2);
    if (!inner.empty()) {
      for (const std::string& item : split(inner, ',')) {
        const auto eq = item.find('=');
        if (eq == std::string::npos || eq == 0) {
          throw std::invalid_argument("policy override '" + item +
                                      "' must be key=value (no spaces)");
        }
        call.args.emplace_back(item.substr(0, eq), item.substr(eq + 1));
      }
    }
  }
  if (call.name.empty()) {
    throw std::invalid_argument("policy name is empty in '" + token + "'");
  }
  return call;
}

PolicyConfig config_for_call(const PolicyCall& call) {
  PolicyConfig config = PolicyRegistry::instance().make_config(call.name);
  for (const auto& [key, value] : call.args) config.set(key, value);
  return config;
}

namespace {

/// Shortest round-trip decimal form (std::to_chars), so a canonical
/// string never depends on how the value was originally spelled.
std::string canonical_real(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  require(result.ec == std::errc(), "canonical_real: to_chars failed");
  return std::string(buffer, result.ptr);
}

}  // namespace

std::string PolicyConfig::canonical() const {
  PolicyCall call;
  call.name = policy_;
  for (const Entry& entry : entries_) {
    switch (entry.def.kind) {
      case ConfigValueKind::Int:
        call.args.emplace_back(entry.def.name,
                               std::to_string(entry.int_value));
        break;
      case ConfigValueKind::Real:
        call.args.emplace_back(entry.def.name,
                               canonical_real(entry.real_value));
        break;
      case ConfigValueKind::String:
        call.args.emplace_back(entry.def.name, entry.string_value);
        break;
    }
  }
  return call.canonical();
}

std::string capability_string(const PolicyCapabilities& caps) {
  std::string out;
  const auto append = [&out](bool flag, const char* token) {
    if (!flag) return;
    if (!out.empty()) out += ",";
    out += token;
  };
  append(caps.deterministic, "deterministic");
  append(caps.stateless_per_epoch, "stateless");
  append(caps.pure_decision, "pure-decision");
  append(caps.uses_rng, "rng");
  append(caps.offline_plan, "offline-plan");
  append(caps.replan_on_fault, "replan-on-fault");
  append(caps.online, "online");
  return out.empty() ? "-" : out;
}

std::string config_keys_string(const PolicyDescriptor& descriptor) {
  std::string keys;
  for (const ConfigKeyDef& key : descriptor.keys) {
    if (!keys.empty()) keys += ", ";
    keys += key.name + "=" + key.default_value;
  }
  return keys.empty() ? "-" : keys;
}

}  // namespace dagsched::sched
