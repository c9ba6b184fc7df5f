#pragma once

// Sweep specification: the declarative description of a PISA-style batch
// comparison (Coleman & Krishnamachari, arXiv:2403.07120) — a cartesian
// product of graph-generator families x interconnect topologies x
// scheduling policies, evaluated over many randomly drawn instances per
// family.  One top-level seed makes the entire sweep reproducible: every
// instance derives its parameters, its graph and its per-policy seeds from
// deterministic Rng streams of the sweep seed (see runner.hpp for the
// derivation contract).
//
// Specs are written in a line-oriented text format ('#' starts a comment):
//
//   seed 42
//   comm paper                       # paper | off
//   comm_sigma_us 4:12               # send overhead range (integer us)
//   comm_tau_us 6:12                 # receive/route overhead range
//   comm_send_cpu per_task_output,offloaded   # SendCpu choice set
//   threads 0                        # 0 = hardware concurrency
//   time_budget_ms 0                 # per-(instance, policy) wall budget
//   policy_defaults gsa(chains=4,oracle=auto)  # defaults for every gsa line
//   fault_machine_mtbf_us 0          # 0 disables machine crashes
//   fault_machine_mttr_us 200        # repair time range (integer us)
//   fault_link_mtbf_us 0             # 0 disables link faults
//   fault_link_drop_prob 1.0         # P(link fault drops vs degrades)
//   fault_max_retries 5              # retransmissions before SimFailure
//   arrival_count 6                  # workflows per instance; 0 = offline
//   arrival_gap_us 300:900           # mean inter-arrival gap (integer us)
//   arrival_burst_prob 0.3           # P(a workflow arrives in a burst)
//   arrival_burst_mult 8             # burst gap compression factor (>= 1)
//   arrival_deadline_slack 1.5       # deadline = arrival + slack*CP; 0 = none
//   arrival_jitter 0.2               # duration uncertainty in [0, 1)
//   arrival_weight_max 4             # workflow weights ~ U[1, max]
//   topology hypercube8
//   topology ring9
//   policy sa
//   policy hlf
//   policy heft
//   policy gsa(chains=8,max_steps=32)     # per-policy hyperparameters
//   policy heft(ranking=peft)
//   family layered count=40 layers=5:8 edge_probability=0.2:0.35
//   family gnp count=40 tasks=30:60
//   family fork_join count=40 stages=3:6 width=4:8
//
// A family parameter is either a single value (`tasks=40`) or an inclusive
// range (`tasks=30:60`) sampled uniformly per instance — ranges are what
// makes the suite adversarial rather than a single hand-picked instance.
// The comm_* knobs extend the same idea to the communication model: each
// instance draws its own sigma/tau/SendCpu, so one sweep covers a slice of
// the hardware space instead of a single machine (see CommAblation below).
// Unknown keys are rejected so typos cannot silently configure nothing.
//
// Policies are resolved by name through the scheduler registry
// (sched/registry.hpp); a policy line may carry construction-time
// hyperparameter overrides as `name(key=value,...)` — no spaces inside
// the parentheses — validated against the policy's declared config keys
// (`sweep --list-policies` prints them).  The same base policy may appear
// several times with different hyperparameters, which makes policy
// configuration an ablation axis of its own (e.g. `gsa(chains=2)` vs
// `gsa(chains=8)`).  A `policy_defaults` line sets defaults for every
// line of that base policy; parenthesized overrides win over them.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sched/registry.hpp"
#include "sim/faults.hpp"
#include "topology/comm_model.hpp"

namespace dagsched::sweep {

/// Graph-generator families available to sweeps (see graph/generators.hpp).
enum class FamilyKind {
  Layered,
  Gnp,
  ForkJoin,
  OutTree,
  InTree,
  Diamond,
  Chain,
};

std::string to_string(FamilyKind kind);
FamilyKind family_kind_from_string(const std::string& name);

/// One policy line of a spec: a scheduler-registry name plus the
/// parenthesized construction-time overrides, in declaration order.  The
/// canonical string doubles as the policy's identity within the sweep
/// (duplicate detection, summary/CSV column label, JSON echo).
struct PolicySpec {
  std::string name;  ///< sched::PolicyRegistry name, e.g. "gsa"
  std::vector<std::pair<std::string, std::string>> args;  ///< key, value

  /// "gsa(chains=2,max_steps=32)", or the bare name when no overrides —
  /// old-style specs keep their historical labels byte for byte.
  std::string canonical() const;
};

/// One `param=lo[:hi]` value; lo == hi for single values.  Integer-valued
/// parameters are drawn with uniform_int over [lo, hi], real-valued ones
/// with uniform_real.
struct ParamRange {
  double lo = 0.0;
  double hi = 0.0;

  bool is_single() const { return lo == hi; }
};

/// One parameter of a family spec, in declaration order.
struct FamilyParam {
  std::string name;
  ParamRange range;
};

/// One generator family plus the number of instances drawn from it.
struct FamilySpec {
  FamilyKind kind = FamilyKind::Layered;
  int count = 8;
  /// Parameter overrides in declaration order; parameters not listed use
  /// the family defaults (the k*Params tables behind
  /// family_param_defs() in params.hpp / spec.cpp).
  std::vector<FamilyParam> params;

  /// The effective range of `name`: the override when present, otherwise
  /// the family default.  Throws for parameters the family does not have.
  ParamRange param(const std::string& name) const;
};

/// Spec-driven communication-model ablation (cf. Beránek et al.,
/// arXiv:2204.07211: scheduler rankings flip with the comm-cost regime).
/// Each instance draws its own sigma/tau (integer microseconds, inclusive
/// ranges) and one SendCpu accounting mode from the choice set, turning a
/// sweep into a hardware-space ablation.  The defaults pin the paper's
/// hardware (sigma 7us, tau 9us, per_task_output), so specs that do not
/// mention these knobs behave exactly as before.
struct CommAblation {
  ParamRange sigma_us{7.0, 7.0};
  ParamRange tau_us{9.0, 9.0};
  std::vector<SendCpu> send_cpu{SendCpu::PerTaskOutput};

  /// True when every knob is pinned to the paper default.
  bool is_paper_default() const;
};

/// Spec-driven fault-injection ablation (sim/faults.hpp): each instance
/// draws its own fault parameters (fault_param_defs() order, integer
/// microseconds except the real-valued drop probability) plus a fault
/// seed, so one sweep covers a slice of the failure space and the
/// robustness columns of the summary are paired per instance.  The
/// defaults disable every fault class (all MTBFs zero), so specs that do
/// not mention the fault_* knobs run — and serialize — exactly as before.
struct FaultAblation {
  ParamRange machine_mtbf_us{0, 0};    ///< 0 = no machine crashes
  ParamRange machine_mttr_us{200, 200};
  ParamRange stall_mtbf_us{0, 0};      ///< 0 = no transient slowdowns
  ParamRange stall_us{40, 40};
  ParamRange link_mtbf_us{0, 0};       ///< 0 = no link faults
  ParamRange link_mttr_us{150, 150};
  ParamRange link_drop_prob{1.0, 1.0};   ///< P(fault drops, not degrades)
  ParamRange link_degrade_factor{4, 4};  ///< wire-time multiplier
  ParamRange msg_timeout_us{400, 400};
  ParamRange retry_backoff_us{50, 50};
  int max_retries = 5;

  /// True when any fault class can fire (any MTBF range reaches > 0).
  bool enabled() const {
    return machine_mtbf_us.hi > 0 || stall_mtbf_us.hi > 0 ||
           link_mtbf_us.hi > 0;
  }
};

/// Spec-driven online arrival-stream ablation (sim/arrivals.hpp): when
/// `arrival_count` can reach > 0, every sweep instance becomes a streamed
/// multi-DAG scenario — `count` workflows drawn from the instance's family
/// enter the ready set over time, and the summary grows online metrics
/// (weighted flow time, deadline hit-rate, p99 response) next to makespan.
/// Each instance draws its own knob values (arrival_param_defs() order,
/// integer microseconds for the gap, real-valued otherwise) plus an
/// arrival-stream seed, appended *after* every other draw so specs that do
/// not mention the arrival_* knobs run — and serialize — exactly as
/// before.  Online sweeps only accept policies whose registry capability
/// says `online` (validate() rejects the rest by name).
struct ArrivalAblation {
  ParamRange count{0, 0};           ///< workflows per instance; 0 = offline
  ParamRange gap_us{500, 500};      ///< mean inter-arrival gap (integer us)
  ParamRange burst_prob{0, 0};      ///< P(workflow arrives inside a burst)
  ParamRange burst_mult{1, 1};      ///< burst gap compression factor (>= 1)
  ParamRange deadline_slack{0, 0};  ///< deadline = arrival + slack*CP; 0=none
  ParamRange jitter{0, 0};          ///< duration uncertainty in [0, 1)
  ParamRange weight_max{1, 1};      ///< workflow weights ~ U[1, max]

  /// True when instances can be online (the workflow count reaches > 0).
  bool enabled() const { return count.hi > 0; }
};

/// The complete declarative sweep description.
struct SweepSpec {
  std::uint64_t seed = 1;
  /// Worker threads; 0 selects hardware_concurrency.  Never affects
  /// results, only wall-clock (the determinism contract).
  int threads = 0;
  /// true = CommModel::paper_default(), false = CommModel::disabled().
  bool comm_enabled = true;
  /// Per-instance comm-parameter draws; ignored when comm is disabled
  /// (validate() rejects non-default knobs with comm off so an ablation
  /// cannot silently configure nothing).
  CommAblation comm;

  /// Per-instance fault-injection draws; disabled unless a fault_* knob
  /// raises an MTBF above zero.  With faults enabled the runner runs every
  /// (instance, policy) cell twice — fault-free baseline, then faulted,
  /// with the *same* policy seed — so degradation ratios are paired.
  FaultAblation faults;

  /// Per-instance online arrival draws; disabled unless arrival_count can
  /// reach > 0.  With arrivals enabled every instance is a merged
  /// multi-workflow graph driven by an arrival-event stream, and only
  /// `online`-capable policies are accepted.
  ArrivalAblation arrivals;

  std::vector<std::string> topologies;  ///< topo::by_name specs
  std::vector<PolicySpec> policies;     ///< registry names + overrides
  std::vector<FamilySpec> families;

  /// `policy_defaults name(key=value,...)` lines: construction-time
  /// defaults applied to every policy line of that base name, between the
  /// registry defaults and the per-policy parenthesized overrides (which
  /// win).  At most one line per base name.
  std::vector<PolicySpec> policy_defaults;

  /// Per-(instance, policy) wall-clock budget in milliseconds; 0 = none.
  /// The gsa policy stops cooperatively between temperature steps and
  /// keeps its best-so-far mapping; other policies are only marked after
  /// the fact.  Budget-hit cells carry a "timed_out" marker through the
  /// summary JSON / CSV.  NOTE: a nonzero budget makes results depend on
  /// host speed — it trades the byte-determinism contract for bounded
  /// latency, which is what makes big adversarial gsa sweeps safe to run
  /// unattended.
  double time_budget_ms = 0.0;

  /// Instances per full sweep: sum(family count) * |topologies|.
  int num_instances() const;

  /// Throws std::invalid_argument when the spec cannot run (no families,
  /// no topologies, no policies, nonpositive counts, bad ranges).
  void validate() const;
};

/// The effective construction-time config of `policy` under `spec`: the
/// registry defaults, overwritten by the matching `policy_defaults` line,
/// overwritten by the policy's own parenthesized overrides.  The seed is
/// left at its default; the runner assigns one per (instance, policy).  Throws
/// std::invalid_argument for unknown policy names or config keys.
sched::PolicyConfig effective_policy_config(const SweepSpec& spec,
                                            const PolicySpec& policy);

/// Parses the text format above.  Throws std::invalid_argument with a line
/// number on malformed input.
SweepSpec parse_spec(const std::string& text);

/// Reads and parses a spec file; throws std::runtime_error when the file
/// cannot be opened.
SweepSpec load_spec_file(const std::string& path);

}  // namespace dagsched::sweep
