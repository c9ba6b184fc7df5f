#pragma once

// The unified scheduler registry: one PolicyFactory API replacing the
// per-policy switch the sweep runner, the examples and the cross-policy
// tests used to carry in parallel.
//
// Every scheduling algorithm the system can compare is described by a
// PolicyDescriptor — a stable name, a one-line doc string, capability
// traits, and the typed construction-time configuration keys it accepts —
// plus a PolicyFactory that builds a runnable ScheduledPolicy from a
// validated PolicyConfig.  Drivers (the sweep runner, `sweep
// --list-policies`, examples, tests) enumerate the registry instead of
// maintaining their own policy lists, so adding a tenth policy is one
// implementation file plus one registration in register_builtin_policies()
// — every driver picks it up automatically.
//
// Capability traits (PolicyCapabilities) make properties that used to be
// comments into queryable facts:
//  * deterministic       — the schedule is a function of (graph, topology,
//                          comm) alone; the config seed is ignored.
//  * stateless_per_epoch — each epoch decision is derivable from the epoch
//                          context plus immutable per-run data computed in
//                          on_run_start; no decision state is carried
//                          epoch to epoch, so a run resumed from a mid-run
//                          checkpoint replays bit-identically.  A policy
//                          may keep a per-run memo of values that, once
//                          computed from an epoch context, stay fixed for
//                          the rest of the run (ETF's per-processor start
//                          costs of a ready task), provided on_run_start
//                          clears it.
//  * pure_decision       — stronger: the decision is a pure function of
//                          (ready set, idle set, mapping, levels) only.
//                          This is the oracle-eligibility trait: the
//                          incremental cost oracle's divergence walk
//                          re-evaluates the decision rule from exactly
//                          those cached inputs, so anneal_global may price
//                          moves with IncrementalReplay iff its replay
//                          policy has this flag (see
//                          core/incremental_cost.hpp,
//                          resolve_cost_oracle_kind).
//  * uses_rng            — consumes an explicitly seeded Rng stream; two
//                          config seeds give independent restarts.
//  * offline_plan        — computes a complete plan up front (HEFT's
//                          rank-u slots, gsa's annealed mapping) and
//                          replays it; the simulator stays the
//                          measurement oracle.
//  * replan_on_fault     — the policy accepts the `on_fault` config key
//                          selecting a repair strategy for fault injection
//                          (sim/faults.hpp): `wait` rides out crashes,
//                          `repin` moves survivors off crashed machines,
//                          `replan` (HEFT/PEFT only) recomputes the plan
//                          around the down set.  Online policies need no
//                          flag — they reschedule at the next epoch by
//                          construction.
//  * online              — the policy is meaningful when tasks stream in
//                          over time (sim/arrivals.hpp): it decides epoch
//                          by epoch from the current ready set and never
//                          assumes the whole graph is ready at t = 0.
//                          Offline planners (heft, gsa) lack the flag —
//                          their up-front plan would start tasks before
//                          their workflow arrives.  Streamed sweep
//                          scenarios (`arrival_*` spec knobs) only accept
//                          policies carrying this flag.
//
// A PolicyConfig is a typed key-value bag: the descriptor declares every
// key with a kind (Int / Real / String), a default and a doc line; set()
// rejects unknown keys and mistyped values with actionable errors, so a
// sweep-spec typo can never silently configure nothing.  This subsumes the
// per-policy option structs (SaSchedulerOptions / GlobalAnnealOptions /
// HeftVariant) for construction-time configuration; the structs remain the
// implementation-level API underneath.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/taskgraph.hpp"
#include "sim/engine.hpp"
#include "topology/comm_model.hpp"
#include "topology/topology.hpp"

namespace dagsched::sched {

/// Queryable capability traits of a registered policy (see the file
/// comment for each flag's exact semantics).
struct PolicyCapabilities {
  bool deterministic = true;
  bool stateless_per_epoch = false;
  bool pure_decision = false;
  bool uses_rng = false;
  bool offline_plan = false;
  bool replan_on_fault = false;
  bool online = false;
};

/// Value domain of one configuration key.
enum class ConfigValueKind { Int, Real, String };

/// One construction-time configuration key a policy accepts.
struct ConfigKeyDef {
  std::string name;
  ConfigValueKind kind = ConfigValueKind::Int;
  std::string default_value;  ///< canonical text form of the default
  std::string doc;            ///< one line for --list-policies
};

/// A typed key-value bag of construction-time options, created with the
/// descriptor's keys at their defaults by PolicyRegistry::make_config().
/// set() parses and validates; the typed getters are what factories read.
/// `seed` is the per-run random seed — driver-assigned (the sweep runner
/// derives one per (instance, policy)), never a spec key, and ignored by
/// policies whose descriptor says `deterministic`.
class PolicyConfig {
 public:
  PolicyConfig() = default;

  const std::string& policy() const { return policy_; }

  bool has_key(const std::string& key) const;

  /// Parses `value` per the key's kind and stores it.  Throws
  /// std::invalid_argument naming the policy and listing its known keys
  /// for an unknown key, or describing the expected kind for a value that
  /// does not parse.
  void set(const std::string& key, const std::string& value);

  /// Typed setters; same unknown-key handling, kind must match exactly.
  void set_int(const std::string& key, std::int64_t value);
  void set_real(const std::string& key, double value);
  void set_string(const std::string& key, std::string value);

  /// Typed getters; throw std::logic_error when the key's kind differs
  /// (a factory bug, not a user error).
  std::int64_t get_int(const std::string& key) const;
  double get_real(const std::string& key) const;
  const std::string& get_string(const std::string& key) const;

  /// The full effective call in spec syntax: the policy name with *every*
  /// config key at its current value, in descriptor key order — e.g.
  /// "heft(ranking=mean,on_fault=wait)".  Two configs that reach the same
  /// settings through different spellings (defaults vs. explicit args,
  /// different arg order) canonicalize identically, which is what the
  /// service plan cache keys on.  The per-run seed is not part of the
  /// string (it is not a config key; the cache adds it separately for
  /// non-deterministic policies).
  std::string canonical() const;

  /// Per-run seed (see class comment).
  std::uint64_t seed = 1;

 private:
  friend class PolicyRegistry;

  struct Entry {
    ConfigKeyDef def;
    std::int64_t int_value = 0;
    double real_value = 0.0;
    std::string string_value;
  };

  Entry* find_entry(const std::string& key);
  const Entry& entry(const std::string& key, ConfigValueKind kind) const;
  [[noreturn]] void fail_unknown_key(const std::string& key) const;

  std::string policy_;
  std::vector<Entry> entries_;  ///< descriptor key order
};

/// How a ScheduledPolicy::run call is driven.
struct PolicyRunOptions {
  /// Forwarded to the simulator (record_trace, max_events).  Offline
  /// policies that do not need a replay for the makespan (gsa) only
  /// simulate when record_trace is set.
  sim::SimOptions sim;

  /// Per-run wall-clock budget in milliseconds; 0 disables it.  Policies
  /// with a cooperative cutoff (gsa) stop early and keep their
  /// best-so-far result, setting PolicyRunOutcome::timed_out; every other
  /// policy ignores the budget (drivers measure after the fact).  A
  /// nonzero budget trades determinism for bounded latency.
  double time_budget_ms = 0.0;
};

/// The outcome of one run: at minimum `result.makespan` and
/// `result.placement`; the full trace when PolicyRunOptions::sim asked
/// for one.
struct PolicyRunOutcome {
  sim::SimResult result;
  bool timed_out = false;  ///< stopped on the cooperative budget
  /// The policy's own pre-execution makespan estimate, for `offline_plan`
  /// policies: HEFT/PEFT report the eq. 4 analytic plan makespan, gsa its
  /// annealed (pinned-replay-exact) makespan.  0 when the policy computes
  /// no plan.  Drivers report result.makespan / predicted_makespan as the
  /// plan-vs-simulated gap.
  Time predicted_makespan = 0;
};

/// A registry-constructed scheduling algorithm, runnable end to end on one
/// (graph, topology, comm) instance.  Online policies wrap a
/// sim::SchedulingPolicy behind sim::simulate; offline planners (gsa) run
/// their optimization and replay the plan.  Instances are single-threaded
/// and reusable across runs, but never shared between concurrently
/// running simulations — drivers construct one per concurrent instance.
class ScheduledPolicy {
 public:
  virtual ~ScheduledPolicy() = default;

  /// The registry name the policy was constructed under.
  virtual std::string name() const = 0;

  /// Runs one instance.  All references must outlive the call.
  virtual PolicyRunOutcome run(const TaskGraph& graph,
                               const Topology& topology,
                               const CommModel& comm,
                               const PolicyRunOptions& options = {}) = 0;

  /// The wrapped sim::SchedulingPolicy when this is a plain online policy
  /// driven by sim::simulate, else nullptr (offline planners, composites).
  /// Drivers that need implementation-level state (e.g. the report
  /// harness reading SaScheduler run statistics) downcast the result;
  /// the pointer stays owned by, and valid as long as, this policy.
  virtual sim::SchedulingPolicy* online_impl() { return nullptr; }
};

/// The one factory signature every policy registers.
using PolicyFactory =
    std::function<std::unique_ptr<ScheduledPolicy>(const PolicyConfig&)>;

/// Everything the registry knows about one policy.
struct PolicyDescriptor {
  std::string name;  ///< stable spec/CLI name (e.g. "hlf-mincomm")
  std::string doc;   ///< one line for --list-policies
  PolicyCapabilities caps;
  std::vector<ConfigKeyDef> keys;  ///< declaration order
  /// Builds a runnable instance from a validated config; throws
  /// std::invalid_argument (prefixed with the policy name) on
  /// semantically invalid values.  Null for descriptor-only entries
  /// ("pinned"): capability facts without spec-level constructibility.
  PolicyFactory factory;
};

/// Name-keyed collection of PolicyDescriptors.  The process-wide instance
/// (all builtin policies) is `PolicyRegistry::instance()`; tests may build
/// private registries to exercise registration rules.
class PolicyRegistry {
 public:
  PolicyRegistry() = default;

  /// The global registry, populated with the builtin policies on first
  /// use (thread-safe, no static-initialization-order hazards).
  static const PolicyRegistry& instance();

  /// Registers a policy.  Throws std::invalid_argument on a duplicate
  /// name, an empty name, or duplicate config keys.
  void add(PolicyDescriptor descriptor);

  /// Descriptor lookup; nullptr when absent.
  const PolicyDescriptor* find(const std::string& name) const;

  /// Descriptor lookup; throws std::invalid_argument listing every known
  /// policy name when absent.
  const PolicyDescriptor& descriptor(const std::string& name) const;

  /// Names of every *constructible* policy, in registration order
  /// (descriptor-only entries like "pinned" are excluded).
  std::vector<std::string> names() const;

  /// A config pre-filled with `name`'s keys at their defaults.
  PolicyConfig make_config(const std::string& name) const;

  /// Builds a runnable policy.  Throws std::invalid_argument for unknown
  /// or descriptor-only names, for a config built for a different policy,
  /// and for semantically invalid config values.
  std::unique_ptr<ScheduledPolicy> make(const std::string& name,
                                        const PolicyConfig& config) const;

  /// Convenience: make(name, make_config(name)).
  std::unique_ptr<ScheduledPolicy> make(const std::string& name) const;

 private:
  std::vector<PolicyDescriptor> entries_;  ///< registration order
};

/// One parsed `name(key=value,...)` policy call — the construction syntax
/// shared by sweep spec lines, the report harness and service requests.
struct PolicyCall {
  std::string name;
  std::vector<std::pair<std::string, std::string>> args;  ///< given order

  /// Formats the call back into spec syntax; the bare name when no args.
  std::string canonical() const;
};

/// Parses the `name(key=value,...)` syntax (syntax only — registry
/// validation happens in config_for_call / make).  Throws
/// std::invalid_argument on unbalanced parentheses, malformed overrides or
/// an empty name.
PolicyCall parse_policy_call(const std::string& token);

/// Builds the validated config of a call: the registry defaults for
/// call.name with every arg applied via set().  Throws
/// std::invalid_argument for unknown policies, unknown keys and mistyped
/// values; `seed` is left at its default for the driver to assign.
PolicyConfig config_for_call(const PolicyCall& call);

/// Comma-joined capability tokens in trait declaration order
/// ("deterministic,stateless,pure-decision,rng,offline-plan,
/// replan-on-fault,online"), "-" when none — the one formatter behind
/// `sweep --list-policies`, the quickstart example and the daemon's
/// `list_policies` op.
std::string capability_string(const PolicyCapabilities& caps);

/// "key=default, key=default" summary of a descriptor's config keys in
/// declaration order; "-" when the policy takes none.
std::string config_keys_string(const PolicyDescriptor& descriptor);

/// Registers the builtin policies: the ten sweep-comparable algorithms
/// (sa, gsa, hlf, hlf-mincomm, etf, list-hlf, heft, peft, random,
/// dagprio) plus the descriptor-only "pinned" entry whose `pure_decision`
/// trait the global annealer consults for oracle eligibility.  Invoked
/// once by PolicyRegistry::instance(); exposed so tests can populate
/// private registries.
void register_builtin_policies(PolicyRegistry& registry);

}  // namespace dagsched::sched
