// Fault-injection layer: determinism of fault timelines, recovery
// semantics (crash-kill-and-re-execute, timeout + backoff retransmission,
// structured retry-exhaustion failure), the fault-aware validator over
// every registry policy, and the sweep-level robustness surface — the
// faulted summary JSON must stay byte-identical across runs and thread
// counts exactly like the zero-fault artifact.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "sched/heft.hpp"
#include "sched/hlf.hpp"
#include "sched/pinned.hpp"
#include "sched/registry.hpp"
#include "sched/repin.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/validate.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "sweep/summary.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"

namespace dagsched {
namespace {

// ---------------------------------------------------------------------------
// Fault timeline determinism.

TEST(FaultModel, WindowsAreAStableFunctionOfSeedAndEntity) {
  sim::FaultSpec spec;
  spec.machine_mtbf = us(std::int64_t{120});
  spec.link_mtbf = us(std::int64_t{90});
  spec.link_drop_prob = 0.5;
  spec.seed = 42;
  const Topology ring = topo::ring(4);
  const sim::FaultModel a(spec, ring);
  const sim::FaultModel b(spec, ring);

  const Time horizon = us(std::int64_t{5000});
  for (ProcId p = 0; p < 4; ++p) {
    const auto wa = a.machine_windows(p, horizon);
    const auto wb = b.machine_windows(p, horizon);
    ASSERT_EQ(wa.size(), wb.size());
    ASSERT_FALSE(wa.empty()) << "proc " << p << " drew no crash windows";
    for (std::size_t i = 0; i < wa.size(); ++i) {
      EXPECT_EQ(wa[i].begin, wb[i].begin);
      EXPECT_EQ(wa[i].end, wb[i].end);
      EXPECT_LT(wa[i].begin, wa[i].end);
    }
  }
}

TEST(FaultModel, HorizonPrefixesAgree) {
  // A longer horizon must extend — never rewrite — the window sequence, or
  // checkpoint/resume would diverge from a straight run.
  sim::FaultSpec spec;
  spec.machine_mtbf = us(std::int64_t{100});
  spec.seed = 7;
  const Topology ring = topo::ring(3);
  const sim::FaultModel model(spec, ring);
  const auto shorter = model.machine_windows(1, us(std::int64_t{1000}));
  const auto longer = model.machine_windows(1, us(std::int64_t{4000}));
  ASSERT_LE(shorter.size(), longer.size());
  for (std::size_t i = 0; i < shorter.size(); ++i) {
    EXPECT_EQ(shorter[i].begin, longer[i].begin);
    EXPECT_EQ(shorter[i].end, longer[i].end);
  }
}

TEST(FaultModel, StreamsAreIndependentPerEntity) {
  sim::FaultSpec spec;
  spec.machine_mtbf = us(std::int64_t{100});
  spec.seed = 7;
  const sim::FaultModel model(spec, topo::ring(3));
  const auto w0 = model.machine_windows(0, us(std::int64_t{2000}));
  const auto w1 = model.machine_windows(1, us(std::int64_t{2000}));
  ASSERT_FALSE(w0.empty());
  ASSERT_FALSE(w1.empty());
  EXPECT_NE(w0[0].begin, w1[0].begin)
      << "two processors drew the same timeline — streams are shared";
}

TEST(FaultSpec, ValidateRejectsNonsense) {
  sim::FaultSpec spec;
  spec.machine_mtbf = us(std::int64_t{100});
  spec.machine_mttr = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.link_mtbf = us(std::int64_t{100});
  spec.link_drop_prob = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.max_retries = -1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Engine recovery semantics.

/// Faulted-vs-faulted reproducibility: the full result surface of a run
/// under an active FaultSpec is a pure function of its inputs.
TEST(FaultEngine, FaultedRunsAreReproducible) {
  const TaskGraph graph = gen::layered_dag({});
  const Topology ring = topo::ring(4);
  const CommModel comm = CommModel::paper_default();
  sim::FaultSpec faults;
  faults.machine_mtbf = us(std::int64_t{150});
  faults.stall_mtbf = us(std::int64_t{200});
  faults.link_mtbf = us(std::int64_t{180});
  faults.link_drop_prob = 0.5;
  faults.seed = 99;

  sim::SimOptions options;
  options.faults = &faults;
  options.record_trace = true;
  sched::HlfScheduler a;
  sched::HlfScheduler b;
  const sim::SimResult ra = sim::simulate(graph, ring, comm, a, options);
  const sim::SimResult rb = sim::simulate(graph, ring, comm, b, options);
  EXPECT_EQ(ra.makespan, rb.makespan);
  EXPECT_EQ(ra.placement, rb.placement);
  EXPECT_EQ(ra.failed, rb.failed);
  EXPECT_EQ(ra.num_retries, rb.num_retries);
  EXPECT_EQ(ra.num_task_restarts, rb.num_task_restarts);
  EXPECT_EQ(ra.total_stall_time, rb.total_stall_time);
  EXPECT_EQ(ra.trace.task_segments.size(), rb.trace.task_segments.size());
  EXPECT_EQ(ra.trace.faults.size(), rb.trace.faults.size());
  EXPECT_EQ(ra.trace.retries.size(), rb.trace.retries.size());
}

/// Golden crash-mid-task run: a single processor executing a chain under
/// aggressive crash windows must lose work and re-execute it.  The exact
/// makespan is pinned — any engine change that shifts crash handling by a
/// nanosecond fails loudly here.
constexpr Time kCrashGoldenMakespan = 232041;

TEST(FaultEngine, CrashMidTaskKillsAndReExecutes) {
  // 4 x 50us chain on one effective processor; crashes every ~100us.
  const TaskGraph graph =
      gen::chain(4, us(std::int64_t{50}), us(std::int64_t{1}));
  const Topology line = topo::line(2);
  const CommModel comm = CommModel::disabled();
  sim::FaultSpec faults;
  faults.machine_mtbf = us(std::int64_t{100});
  faults.machine_mttr = us(std::int64_t{30});
  faults.seed = 5;

  sched::HlfScheduler zero_fault_policy;
  const sim::SimResult base =
      sim::simulate(graph, line, comm, zero_fault_policy);
  ASSERT_EQ(base.makespan, us(std::int64_t{200}));
  ASSERT_EQ(base.num_task_restarts, 0);

  sim::SimOptions options;
  options.faults = &faults;
  options.record_trace = true;
  sched::HlfScheduler policy;
  const sim::SimResult result =
      sim::simulate(graph, line, comm, policy, options);
  EXPECT_FALSE(result.failed);
  EXPECT_GT(result.num_task_restarts, 0)
      << "no crash ever landed mid-task; tune the MTBF";
  EXPECT_GT(result.makespan, base.makespan);
  // Pinned golden value (tier-1): crash recovery must replay
  // bit-identically forever.
  EXPECT_EQ(result.makespan, kCrashGoldenMakespan);
  EXPECT_TRUE(
      sim::validate_faulty_run(graph, line, comm, faults, result).empty());
}

/// Golden retry-exhaustion run: producer and consumer pinned across a link
/// that drops every transfer while down; the sender's retries exhaust and
/// the run reports a structured SimFailure instead of aborting.
TEST(FaultEngine, RetryExhaustionIsAStructuredFailure) {
  const TaskGraph graph =
      gen::chain(2, us(std::int64_t{20}), us(std::int64_t{10}));
  const Topology line = topo::line(2);
  CommModel comm = CommModel::paper_default();
  sim::FaultSpec faults;
  faults.link_mtbf = us(std::int64_t{10});
  faults.link_mttr = us(std::int64_t{100000});  // down for the whole run
  faults.link_drop_prob = 1.0;
  faults.msg_timeout = us(std::int64_t{30});
  faults.retry_backoff = us(std::int64_t{5});
  faults.max_retries = 2;
  faults.seed = 3;

  sched::PinnedScheduler pinned({0, 1});
  sim::SimOptions options;
  options.faults = &faults;
  const sim::SimResult result =
      sim::simulate(graph, line, comm, pinned, options);
  ASSERT_TRUE(result.failed)
      << "the link never dropped the message; tune the windows";
  EXPECT_EQ(result.failure.producer, 0);
  EXPECT_EQ(result.failure.consumer, 1);
  EXPECT_EQ(result.failure.attempts, faults.max_retries + 1);
  EXPECT_GT(result.failure.when, 0);
  EXPECT_EQ(result.num_retries, faults.max_retries);
}

/// HLF until the first epoch that sees a processor down; nothing after.
class GiveUpAfterCrash : public sim::SchedulingPolicy {
 public:
  void on_run_start(const TaskGraph& graph, const Topology& topology,
                    const CommModel& comm) override {
    hlf_->on_run_start(graph, topology, comm);
  }
  void on_epoch(sim::EpochContext& ctx) override {
    gave_up_ = gave_up_ || !ctx.down_procs().empty();
    if (!gave_up_) hlf_->on_epoch(ctx);
  }
  std::string name() const override { return "give-up-after-crash"; }
  bool gave_up() const { return gave_up_; }

 private:
  std::unique_ptr<sim::SchedulingPolicy> hlf_ =
      std::make_unique<sched::HlfScheduler>();
  bool gave_up_ = false;
};

/// Fault cursors keep the event queue populated forever, so a policy that
/// stops assigning must be caught by state, not by an empty queue: the run
/// reports the same stall a zero-fault run does, long before the event
/// budget runs out.
TEST(FaultEngine, StalledPolicyIsCaughtUnderActiveFaults) {
  const TaskGraph graph = gen::layered_dag({});
  const Topology ring = topo::ring(4);
  const CommModel comm = CommModel::paper_default();
  sim::FaultSpec faults;
  faults.machine_mtbf = us(std::int64_t{150});
  faults.machine_mttr = us(std::int64_t{40});
  faults.stall_mtbf = us(std::int64_t{200});
  faults.seed = 99;

  sim::SimOptions options;
  options.faults = &faults;
  options.record_trace = false;
  options.max_events = 20000;
  GiveUpAfterCrash policy;
  try {
    sim::simulate(graph, ring, comm, policy, options);
    ADD_FAILURE() << "the run finished; no crash reached the policy";
  } catch (const sim::SimulationError& error) {
    EXPECT_NE(std::string(error.what()).find("simulation stalled"),
              std::string::npos)
        << error.what();
  }
  EXPECT_TRUE(policy.gave_up());
}

TEST(FaultEngine, ZeroFaultSpecPointerIsAFastPathNoOp) {
  // An inactive spec behind the pointer must leave results bit-identical
  // to a run with no spec at all.
  const TaskGraph graph = gen::layered_dag({});
  const Topology ring = topo::ring(4);
  const CommModel comm = CommModel::paper_default();
  sim::FaultSpec inactive;  // all MTBFs zero
  sim::SimOptions with_spec;
  with_spec.faults = &inactive;
  sched::HlfScheduler a;
  sched::HlfScheduler b;
  const sim::SimResult ra = sim::simulate(graph, ring, comm, a, with_spec);
  const sim::SimResult rb = sim::simulate(graph, ring, comm, b);
  EXPECT_EQ(ra.makespan, rb.makespan);
  EXPECT_EQ(ra.placement, rb.placement);
  EXPECT_EQ(ra.num_epochs, rb.num_epochs);
}

// ---------------------------------------------------------------------------
// Cross-policy recovery validity.

/// Every registry policy, run under active machine + stall + link faults,
/// must produce a schedule the fault-aware validator accepts: no task on a
/// crashed machine, retries respecting the timeout + backoff discipline,
/// exclusivity and precedence intact.
TEST(FaultCrossPolicy, EveryPolicySurvivesTheFaultValidator) {
  const auto& registry = sched::PolicyRegistry::instance();
  Rng rng(0xFA017);
  const Topology machines[] = {topo::ring(4), topo::mesh(2, 3)};
  int validated = 0;
  for (int round = 0; round < 4; ++round) {
    gen::LayeredDagOptions graph_options;
    graph_options.layers = 3 + static_cast<int>(rng.uniform_index(3));
    graph_options.seed = rng.next_u64();
    const TaskGraph graph = gen::layered_dag(graph_options);
    const Topology& machine = machines[round % 2];
    CommModel comm = CommModel::paper_default();
    comm.sigma = us(rng.uniform_int(0, 8));

    sim::FaultSpec faults;
    faults.machine_mtbf = us(std::int64_t{200});
    faults.stall_mtbf = us(std::int64_t{250});
    faults.link_mtbf = us(std::int64_t{220});
    faults.link_drop_prob = 0.6;
    faults.seed = rng.next_u64();

    for (const std::string& name : registry.names()) {
      sched::PolicyConfig config = registry.make_config(name);
      config.seed = rng.next_u64();
      if (config.has_key("chains")) config.set_int("chains", 1);
      if (config.has_key("max_steps")) {
        config.set_int("max_steps", name == "gsa" ? 6 : 12);
      }
      if (config.has_key("on_fault")) {
        config.set_string("on_fault", round % 2 == 0 ? "repin" : "wait");
      }
      const auto policy = registry.make(name, config);
      sched::PolicyRunOptions run_options;
      run_options.sim.record_trace = true;
      run_options.sim.faults = &faults;
      const sched::PolicyRunOutcome outcome =
          policy->run(graph, machine, comm, run_options);
      if (outcome.result.failed) continue;  // exhaustion is a legal outcome
      const auto violations = sim::validate_faulty_run(
          graph, machine, comm, faults, outcome.result);
      EXPECT_TRUE(violations.empty())
          << name << " on " << machine.name() << " (round " << round
          << "): " << (violations.empty() ? "" : violations.front());
      ++validated;
    }
  }
  EXPECT_GT(validated, 0) << "every single run failed; faults too harsh";
}

/// The HEFT replan strategy must also hold up under crashes: the rebuilt
/// plan may not place work on a down machine.
TEST(FaultCrossPolicy, HeftReplanRecoversFromCrashes) {
  Rng rng(0xBEEF);
  gen::LayeredDagOptions graph_options;
  graph_options.layers = 4;
  graph_options.seed = 11;
  const TaskGraph graph = gen::layered_dag(graph_options);
  const Topology ring = topo::ring(4);
  const CommModel comm = CommModel::paper_default();
  sim::FaultSpec faults;
  faults.machine_mtbf = us(std::int64_t{150});
  faults.seed = 17;

  const auto& registry = sched::PolicyRegistry::instance();
  for (const char* strategy : {"wait", "repin", "replan"}) {
    sched::PolicyConfig config = registry.make_config("heft");
    config.set_string("on_fault", strategy);
    const auto policy = registry.make("heft", config);
    sched::PolicyRunOptions run_options;
    run_options.sim.record_trace = true;
    run_options.sim.faults = &faults;
    const sched::PolicyRunOutcome outcome =
        policy->run(graph, ring, comm, run_options);
    if (outcome.result.failed) continue;
    EXPECT_TRUE(sim::validate_faulty_run(graph, ring, comm, faults,
                                         outcome.result)
                    .empty())
        << "heft on_fault=" << strategy;
  }
}

// ---------------------------------------------------------------------------
// Registry on_fault configuration.

TEST(FaultConfig, OnFaultKeyIsValidatedPerPolicy) {
  const auto& registry = sched::PolicyRegistry::instance();
  // HEFT/PEFT advertise replan_on_fault and accept all three strategies.
  EXPECT_TRUE(registry.descriptor("heft").caps.replan_on_fault);
  EXPECT_TRUE(registry.descriptor("peft").caps.replan_on_fault);
  for (const char* name : {"heft", "peft"}) {
    for (const char* strategy : {"wait", "repin", "replan"}) {
      sched::PolicyConfig config = registry.make_config(name);
      config.set_string("on_fault", strategy);
      EXPECT_NO_THROW(registry.make(name, config)) << name << " " << strategy;
    }
  }
  // gsa repairs by re-pinning only — its annealed mapping has no ranking
  // to replan from.
  {
    sched::PolicyConfig config = registry.make_config("gsa");
    config.set_string("on_fault", "repin");
    EXPECT_NO_THROW(registry.make("gsa", config));
    config.set_string("on_fault", "replan");
    EXPECT_THROW(registry.make("gsa", config), std::invalid_argument);
  }
  // Unknown strategies are a config error, not a silent default.
  {
    sched::PolicyConfig config = registry.make_config("heft");
    config.set_string("on_fault", "pray");
    EXPECT_THROW(registry.make("heft", config), std::invalid_argument);
  }
}

TEST(FaultConfig, RepinSchedulerRejectsBadMappings) {
  const TaskGraph graph =
      gen::chain(3, us(std::int64_t{10}), us(std::int64_t{1}));
  const Topology ring = topo::ring(3);
  const CommModel comm = CommModel::disabled();
  sched::RepinScheduler short_mapping({0});  // 1 entry for 3 tasks
  EXPECT_THROW(sim::simulate(graph, ring, comm, short_mapping),
               std::exception);
}

// ---------------------------------------------------------------------------
// Spec surface: fault knobs, policy_defaults.

const char* kFaultySpec = R"(
seed 21
comm paper
topology ring:4
policy hlf
policy heft(on_fault=repin)
family gnp count=3 tasks=10:14 edge_probability=0.2
family diamond count=2 width=4:6
fault_machine_mtbf_us 150
fault_machine_mttr_us 40
fault_link_mtbf_us 200
fault_link_drop_prob 0.5
fault_max_retries 6
)";

TEST(FaultSpecParse, FaultKnobsRoundTrip) {
  const sweep::SweepSpec spec = sweep::parse_spec(kFaultySpec);
  EXPECT_TRUE(spec.faults.enabled());
  EXPECT_EQ(spec.faults.machine_mtbf_us.lo, 150.0);
  EXPECT_EQ(spec.faults.machine_mttr_us.lo, 40.0);
  EXPECT_EQ(spec.faults.link_mtbf_us.lo, 200.0);
  EXPECT_EQ(spec.faults.link_drop_prob.lo, 0.5);
  EXPECT_EQ(spec.faults.max_retries, 6);
  EXPECT_NO_THROW(spec.validate());
}

TEST(FaultSpecParse, FaultRangesAreDrawnPerInstance) {
  std::string text(kFaultySpec);
  text += "fault_machine_mtbf_us 100:300\n";
  const sweep::SweepSpec spec = sweep::parse_spec(text);
  EXPECT_EQ(spec.faults.machine_mtbf_us.lo, 100.0);
  EXPECT_EQ(spec.faults.machine_mtbf_us.hi, 300.0);
}

TEST(FaultSpecParse, LinkFaultsRequireComm) {
  // parse_spec validates; link faults with no messages are a spec error.
  EXPECT_THROW(sweep::parse_spec(R"(
seed 1
comm off
topology ring:4
policy hlf
family diamond count=1 width=4
fault_link_mtbf_us 100
)"),
               std::invalid_argument);
}

TEST(FaultSpecParse, PolicyDefaultsLayerBetweenLegacyAndParens) {
  const char* text = R"(
seed 1
comm off
topology ring:4
policy_defaults sa(max_steps=9,moves=3)
policy sa
policy sa(max_steps=5)
family diamond count=1 width=4
)";
  const sweep::SweepSpec spec = sweep::parse_spec(text);
  // policy_defaults wins over the registry defaults (max_steps=60,
  // moves=0)...
  const auto plain = sweep::effective_policy_config(spec, spec.policies[0]);
  EXPECT_EQ(plain.get_int("max_steps"), 9);
  EXPECT_EQ(plain.get_int("moves"), 3);
  // ...and per-policy parens win over policy_defaults.
  const auto overridden =
      sweep::effective_policy_config(spec, spec.policies[1]);
  EXPECT_EQ(overridden.get_int("max_steps"), 5);
  EXPECT_EQ(overridden.get_int("moves"), 3);
}

TEST(FaultSpecParse, PolicyDefaultsRejectsUnknownPolicyAndDuplicates) {
  EXPECT_THROW(sweep::parse_spec(R"(
seed 1
topology ring:4
policy_defaults nonsense(max_steps=2)
policy hlf
family diamond count=1 width=4
)"),
               std::invalid_argument);
  EXPECT_THROW(sweep::parse_spec(R"(
seed 1
topology ring:4
policy_defaults sa(max_steps=2)
policy_defaults sa(moves=1)
policy sa
family diamond count=1 width=4
)"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Sweep-level robustness surface and byte-determinism.

sweep::SweepSpec faulty_sweep_spec() {
  sweep::SweepSpec spec = sweep::parse_spec(kFaultySpec);
  spec.threads = 1;
  return spec;
}

TEST(FaultSweep, RobustnessColumnsAreFilled) {
  sweep::SweepSpec spec = faulty_sweep_spec();
  const sweep::SweepResult result = sweep::run_sweep(spec);
  ASSERT_EQ(result.instances.size(), 5u);
  for (const sweep::InstanceResult& row : result.instances) {
    ASSERT_EQ(row.base_makespans.size(), spec.policies.size());
    ASSERT_EQ(row.retries.size(), spec.policies.size());
    ASSERT_EQ(row.failed.size(), spec.policies.size());
    EXPECT_NE(row.fault_seed, 0u);
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      EXPECT_GT(row.base_makespans[p], 0);
      // Faulted makespans never beat their paired fault-free baseline.
      EXPECT_GE(row.makespans[p], row.base_makespans[p]);
    }
  }
  const auto ranking = sweep::summarize(result);
  for (const sweep::PolicySummary& s : ranking) {
    EXPECT_GE(s.geomean_degradation, 1.0) << s.policy;
    EXPECT_GE(s.p99_degradation, s.geomean_degradation * 0.5) << s.policy;
    EXPECT_GE(s.success_rate, 0.0);
    EXPECT_LE(s.success_rate, 1.0);
  }
  const auto fault_free = sweep::fault_free_ranking(result);
  EXPECT_EQ(fault_free.size(), spec.policies.size());

  const std::string json = sweep::summary_json(result, ranking);
  EXPECT_NE(json.find("\"fault_machine_mtbf_us\""), std::string::npos);
  EXPECT_NE(json.find("\"fault_max_retries\""), std::string::npos);
  EXPECT_NE(json.find("\"robustness\""), std::string::npos);
  EXPECT_NE(json.find("\"fault_free_ranking\""), std::string::npos);
  const std::string csv = sweep::per_instance_csv(result);
  EXPECT_NE(csv.find("base_makespan_us"), std::string::npos);
  EXPECT_NE(csv.find("degradation"), std::string::npos);
}

TEST(FaultSweep, FaultedSummaryIsByteIdenticalAcrossRunsAndThreads) {
  sweep::SweepSpec spec = faulty_sweep_spec();
  const sweep::SweepResult first = sweep::run_sweep(spec);
  const sweep::SweepResult second = sweep::run_sweep(spec);
  spec.threads = 4;
  const sweep::SweepResult threaded = sweep::run_sweep(spec);

  const std::string a = sweep::summary_json(first, sweep::summarize(first));
  const std::string b = sweep::summary_json(second, sweep::summarize(second));
  const std::string c =
      sweep::summary_json(threaded, sweep::summarize(threaded));
  EXPECT_EQ(a, b) << "faulted sweep is not run-deterministic";
  EXPECT_EQ(a, c) << "faulted sweep depends on the thread count";
  EXPECT_EQ(sweep::per_instance_csv(first),
            sweep::per_instance_csv(threaded));
}

TEST(FaultSweep, ZeroFaultSpecKeepsTheLegacyArtifactShape) {
  // A spec without fault knobs must not grow new JSON keys or CSV columns
  // (byte-compat with every golden recorded before faults existed).
  sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 5
comm paper
topology ring:4
policy hlf
policy random
family diamond count=2 width=4:6
)");
  spec.threads = 1;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  const std::string json =
      sweep::summary_json(result, sweep::summarize(result));
  EXPECT_EQ(json.find("\"fault_"), std::string::npos);
  EXPECT_EQ(json.find("\"robustness\""), std::string::npos);
  EXPECT_EQ(json.find("\"fault_free_ranking\""), std::string::npos);
  const std::string csv = sweep::per_instance_csv(result);
  EXPECT_EQ(csv.find("degradation"), std::string::npos);
  for (const sweep::InstanceResult& row : result.instances) {
    EXPECT_TRUE(row.base_makespans.empty());
    EXPECT_EQ(row.fault_seed, 0u);
  }
}

}  // namespace
}  // namespace dagsched
