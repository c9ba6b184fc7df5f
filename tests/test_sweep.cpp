// Sweep subsystem: spec parsing, instance derivation, aggregation
// invariants, and the determinism contract — the same seed + spec must
// yield a byte-identical summary JSON across runs and across worker
// thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/incremental_cost.hpp"
#include "graph/taskgraph.hpp"
#include "sweep/params.hpp"
#include "sweep/runner.hpp"
#include "sweep/shard.hpp"
#include "sweep/spec.hpp"
#include "sweep/summary.hpp"
#include "util/json.hpp"

namespace dagsched {
namespace {

const char* kSmallSpec = R"(
# comment line
seed 99
comm paper
topology ring:4
topology line:3
policy sa
policy hlf
policy random
policy_defaults sa(max_steps=12)
family gnp count=3 tasks=10:16 edge_probability=0.15
family diamond count=2 width=4:8
)";

sweep::SweepSpec small_spec() { return sweep::parse_spec(kSmallSpec); }

TEST(SweepSpec, ParsesEveryField) {
  const sweep::SweepSpec spec = small_spec();
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_TRUE(spec.comm_enabled);
  ASSERT_EQ(spec.topologies.size(), 2u);
  EXPECT_EQ(spec.topologies[0], "ring:4");
  ASSERT_EQ(spec.policies.size(), 3u);
  EXPECT_EQ(spec.policies[0].name, "sa");
  EXPECT_TRUE(spec.policies[0].args.empty());
  EXPECT_EQ(spec.policies[0].canonical(), "sa");
  EXPECT_EQ(sweep::effective_policy_config(spec, spec.policies[0])
                .get_int("max_steps"),
            12);
  ASSERT_EQ(spec.families.size(), 2u);
  EXPECT_EQ(spec.families[0].kind, sweep::FamilyKind::Gnp);
  EXPECT_EQ(spec.families[0].count, 3);
  // (3 + 2) instances x 2 topologies.
  EXPECT_EQ(spec.num_instances(), 10);
}

TEST(SweepSpec, RangeAndSingleParams) {
  const sweep::SweepSpec spec = small_spec();
  const sweep::ParamRange tasks = spec.families[0].param("tasks");
  EXPECT_EQ(tasks.lo, 10.0);
  EXPECT_EQ(tasks.hi, 16.0);
  const sweep::ParamRange probability =
      spec.families[0].param("edge_probability");
  EXPECT_TRUE(probability.is_single());
  // Parameters not overridden fall back to the family default.
  const sweep::ParamRange width = spec.families[1].param("source_duration_us");
  EXPECT_TRUE(width.is_single());
}

TEST(SweepSpec, RejectsMalformedInput) {
  EXPECT_THROW(sweep::parse_spec("bogus_key 1\nfamily gnp count=1\n"
                                 "topology ring:3\npolicy hlf\n"),
               std::invalid_argument);
  EXPECT_THROW(sweep::parse_spec("family gnp count=1 no_such_param=3\n"
                                 "topology ring:3\npolicy hlf\n"),
               std::invalid_argument);
  EXPECT_THROW(sweep::parse_spec("family gnp count=1 tasks=9:4\n"
                                 "topology ring:3\npolicy hlf\n"),
               std::invalid_argument);  // lo > hi
  EXPECT_THROW(sweep::parse_spec("family gnp count=1\npolicy hlf\n"),
               std::invalid_argument);  // no topology
  EXPECT_THROW(sweep::parse_spec("family gnp count=1\n"
                                 "topology no_such_topo\npolicy hlf\n"),
               std::invalid_argument);  // unresolvable topology
  EXPECT_THROW(sweep::parse_spec("family gnp count=1\ntopology ring:3\n"
                                 "policy hlf\npolicy hlf\n"),
               std::invalid_argument);  // duplicate policy
}

TEST(SweepRunner, InstanceGraphsAreDeterministicAndDiverse) {
  const sweep::SweepSpec spec = small_spec();
  std::uint64_t seed_a = 0;
  std::uint64_t seed_b = 0;
  const TaskGraph a = sweep::build_instance_graph(spec, 0, 0, &seed_a);
  const TaskGraph b = sweep::build_instance_graph(spec, 0, 0, &seed_b);
  EXPECT_EQ(seed_a, seed_b);
  EXPECT_EQ(a.num_tasks(), b.num_tasks());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_GE(a.num_tasks(), 10);
  EXPECT_LE(a.num_tasks(), 16);
  // Different repetitions must be decorrelated.
  std::uint64_t seed_c = 0;
  sweep::build_instance_graph(spec, 0, 1, &seed_c);
  EXPECT_NE(seed_a, seed_c);
}

TEST(SweepRunner, ResultShapeAndEnumerationOrder) {
  sweep::SweepSpec spec = small_spec();
  spec.threads = 1;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  ASSERT_EQ(result.instances.size(), 10u);
  for (std::size_t i = 0; i < result.instances.size(); ++i) {
    const sweep::InstanceResult& row = result.instances[i];
    EXPECT_EQ(row.index, static_cast<int>(i));
    ASSERT_EQ(row.makespans.size(), spec.policies.size());
    for (Time makespan : row.makespans) EXPECT_GT(makespan, 0);
    EXPECT_GT(row.tasks, 0);
  }
  // Enumeration order: families in spec order, topologies innermost.
  EXPECT_EQ(result.instances[0].family, "gnp");
  EXPECT_EQ(result.instances[0].topology, "ring:4");
  EXPECT_EQ(result.instances[1].topology, "line:3");
  EXPECT_EQ(result.instances[6].family, "diamond");
  // The same (family, repetition) graph is reused across topologies.
  EXPECT_EQ(result.instances[0].graph_seed, result.instances[1].graph_seed);
  EXPECT_EQ(result.instances[0].tasks, result.instances[1].tasks);
}

TEST(SweepSummary, AggregationInvariants) {
  sweep::SweepSpec spec = small_spec();
  spec.threads = 2;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  const std::vector<sweep::PolicySummary> ranking =
      sweep::summarize(result);
  ASSERT_EQ(ranking.size(), spec.policies.size());

  int total_wins = 0;
  for (const sweep::PolicySummary& s : ranking) {
    EXPECT_GE(s.geomean_ratio, 1.0);
    EXPECT_GE(s.mean_ratio, s.geomean_ratio - 1e-9);  // AM-GM
    EXPECT_GE(s.p90_ratio, s.p50_ratio);
    EXPECT_GE(s.max_ratio, s.p90_ratio);
    EXPECT_GE(s.win_rate, 0.0);
    EXPECT_LE(s.win_rate, 1.0);
    total_wins += s.wins;
  }
  // Every instance has at least one winner (ties may add more).
  EXPECT_GE(total_wins, static_cast<int>(result.instances.size()));
  // Ranking is sorted by geomean ratio.
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_LE(ranking[i - 1].geomean_ratio, ranking[i].geomean_ratio);
  }
}

TEST(SweepSummary, JsonIsByteIdenticalAcrossRunsAndThreadCounts) {
  sweep::SweepSpec spec = small_spec();

  spec.threads = 1;
  const sweep::SweepResult single = sweep::run_sweep(spec);
  const std::string single_json =
      sweep::summary_json(single, sweep::summarize(single));

  spec.threads = 3;
  const sweep::SweepResult threaded = sweep::run_sweep(spec);
  const std::string threaded_json =
      sweep::summary_json(threaded, sweep::summarize(threaded));

  const sweep::SweepResult repeat = sweep::run_sweep(spec);
  const std::string repeat_json =
      sweep::summary_json(repeat, sweep::summarize(repeat));

  EXPECT_EQ(single_json, threaded_json);
  EXPECT_EQ(threaded_json, repeat_json);

  // The per-instance raw makespans agree as well, not just the summary.
  ASSERT_EQ(single.instances.size(), threaded.instances.size());
  for (std::size_t i = 0; i < single.instances.size(); ++i) {
    EXPECT_EQ(single.instances[i].makespans,
              threaded.instances[i].makespans);
  }
}

TEST(SweepSummary, CsvHasOneRowPerInstancePolicyPair) {
  sweep::SweepSpec spec = small_spec();
  spec.threads = 1;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  const std::string csv = sweep::per_instance_csv(result);
  const std::size_t lines =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines,
            1 + result.instances.size() * spec.policies.size());
}

TEST(SweepRunner, GsaPolicyRunsAndIsCompetitive) {
  // A tiny gsa-only vs hlf sweep: the whole-schedule annealer starts from
  // the HLF placement, so it can never lose to plain first-idle HLF by
  // much; mainly this locks the gsa plumbing (explicit chain count, seed
  // wiring) into the test suite.
  sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 7
topology ring:4
policy gsa
policy hlf
policy_defaults gsa(chains=1,max_steps=6)
family diamond count=2 width=4:6
)");
  spec.threads = 2;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  const sweep::SweepResult again = sweep::run_sweep(spec);
  ASSERT_EQ(result.instances.size(), 2u);
  for (std::size_t i = 0; i < result.instances.size(); ++i) {
    EXPECT_EQ(result.instances[i].makespans, again.instances[i].makespans);
  }
}

TEST(SweepSpec, ParsesOracleAndTimeBudgetKnobs) {
  const sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 1
topology ring:3
policy gsa
policy_defaults gsa(chains=1,oracle=full)
time_budget_ms 250.5
family chain count=1 length=4
)");
  EXPECT_EQ(sa::cost_oracle_kind_from_string(
                sweep::effective_policy_config(spec, spec.policies[0])
                    .get_string("oracle")),
            sa::CostOracleKind::kFullReplay);
  EXPECT_DOUBLE_EQ(spec.time_budget_ms, 250.5);
  // The default is capability-driven resolution, which lands on the
  // incremental oracle (the pinned replay policy is pure-decision).
  const sweep::SweepSpec bare = sweep::parse_spec(
      "policy gsa\ntopology ring:3\nfamily chain count=1 length=4\n");
  const sa::CostOracleKind bare_kind = sa::cost_oracle_kind_from_string(
      sweep::effective_policy_config(bare, bare.policies[0])
          .get_string("oracle"));
  EXPECT_EQ(bare_kind, sa::CostOracleKind::kAuto);
  EXPECT_EQ(sa::resolve_cost_oracle_kind(bare_kind),
            sa::CostOracleKind::kIncremental);
}

TEST(SweepSpec, RejectsBadOracleAndBudget) {
  const char* tail = "topology ring:3\nfamily chain count=1\n";
  EXPECT_THROW(sweep::parse_spec(std::string("policy gsa(oracle=warp)\n") +
                                 tail),
               std::invalid_argument);
  EXPECT_THROW(sweep::parse_spec(std::string("policy gsa\n"
                                             "policy_defaults "
                                             "gsa(oracle=warp)\n") +
                                 tail),
               std::invalid_argument);
  EXPECT_THROW(sweep::parse_spec("time_budget_ms -5\n"),
               std::invalid_argument);
}

// Spec numbers keep the forms std::stod accepted, read without the C
// locale: a '+', hex floats and "inf" parse; range errors and trailing
// bytes keep their own messages.
TEST(SweepSpec, NumberFieldsKeepTheirAcceptedForms) {
  const std::string prefix =
      "family gnp count=1\npolicy hlf\ntopology hypercube8\n";
  const auto budget = [&](const std::string& text) {
    return sweep::parse_spec(prefix + "time_budget_ms " + text + "\n")
        .time_budget_ms;
  };
  EXPECT_EQ(budget("+2.5"), 2.5);
  EXPECT_EQ(budget("0x10"), 16.0);
  EXPECT_EQ(budget(".5e1"), 5.0);
  EXPECT_EQ(budget("inf"), std::numeric_limits<double>::infinity());
  const auto message = [&](const std::string& text) {
    try {
      budget(text);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message("1e400"), "sweep spec line 4: number out of range '1e400'");
  EXPECT_EQ(message("1e-310"),
            "sweep spec line 4: number out of range '1e-310'");
  EXPECT_EQ(message("1e400x"),
            "sweep spec line 4: number out of range '1e400x'");
  EXPECT_EQ(message("2.5ms"), "sweep spec line 4: bad number '2.5ms'");
  EXPECT_EQ(message("1,5"), "sweep spec line 4: bad number '1,5'");
  EXPECT_EQ(message("x"), "sweep spec line 4: bad number 'x'");
  EXPECT_EQ(message("-0x1"), "sweep spec line 4: time_budget_ms must be >= 0");
}

// The spec-level sa_*/gsa_* knobs are retired in favor of policy_defaults
// lines; each now fails like any other unknown key, with its line number.
TEST(SweepSpec, RetiredAnnealerKnobsAreUnknownKeys) {
  for (const char* key : {"sa_max_steps", "sa_moves", "gsa_chains",
                          "gsa_max_steps", "gsa_moves", "gsa_oracle"}) {
    const std::string text = std::string("seed 1\ntopology ring:3\n") +
                             key + " 2\npolicy gsa\n" +
                             "family chain count=1 length=4\n";
    try {
      sweep::parse_spec(text);
      ADD_FAILURE() << key << " still parses";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()),
                std::string("sweep spec line 3: unknown key '") + key + "'");
    }
  }
}

// Bare annealer lines run on the registry defaults: the configuration the
// perfbench sweep_anneal spec runs (gsa: 2 chains, 24 steps, auto oracle).
TEST(SweepSpec, BareAnnealerPoliciesGetRegistryDefaults) {
  const sweep::SweepSpec spec = sweep::parse_spec(
      "policy sa\npolicy gsa\ntopology ring:3\n"
      "family chain count=1 length=4\n");
  const sched::PolicyRegistry& registry = sched::PolicyRegistry::instance();
  const sched::PolicyConfig sa_config =
      sweep::effective_policy_config(spec, spec.policies[0]);
  const sched::PolicyConfig gsa_config =
      sweep::effective_policy_config(spec, spec.policies[1]);
  EXPECT_EQ(sa_config.canonical(), registry.make_config("sa").canonical());
  EXPECT_EQ(gsa_config.canonical(), registry.make_config("gsa").canonical());
  EXPECT_EQ(sa_config.get_int("max_steps"), 60);
  EXPECT_EQ(sa_config.get_int("moves"), 0);
  EXPECT_EQ(sa_config.get_real("wb"), 0.5);
  EXPECT_EQ(gsa_config.get_int("chains"), 2);
  EXPECT_EQ(gsa_config.get_int("max_steps"), 24);
  EXPECT_EQ(gsa_config.get_int("moves"), 0);
  EXPECT_EQ(gsa_config.get_string("oracle"), "auto");
}

TEST(SweepRunner, OracleChoiceNeverChangesResults) {
  sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 31
topology ring:4
policy gsa
policy hlf
policy_defaults gsa(chains=1,max_steps=6)
family gnp count=2 tasks=12:18
)");
  spec.threads = 1;
  spec.policies[0].args = {{"oracle", "full"}};
  const sweep::SweepResult full = sweep::run_sweep(spec);
  spec.policies[0].args = {{"oracle", "incremental"}};
  const sweep::SweepResult incremental = sweep::run_sweep(spec);
  ASSERT_EQ(full.instances.size(), incremental.instances.size());
  for (std::size_t i = 0; i < full.instances.size(); ++i) {
    EXPECT_EQ(full.instances[i].makespans,
              incremental.instances[i].makespans);
  }
}

TEST(SweepRunner, TimeBudgetMarksTimedOutCells) {
  sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 7
topology ring:4
policy gsa
policy hlf
policy_defaults gsa(chains=1)
family diamond count=1 width=6
)");
  spec.threads = 1;
  spec.time_budget_ms = 1e-6;  // exceeded before the first gsa step
  const sweep::SweepResult result = sweep::run_sweep(spec);
  ASSERT_EQ(result.instances.size(), 1u);
  const sweep::InstanceResult& row = result.instances[0];
  ASSERT_EQ(row.timed_out.size(), 2u);
  EXPECT_EQ(row.timed_out[0], 1);  // gsa stopped on its budget

  const auto ranking = sweep::summarize(result);
  int total_timeouts = 0;
  for (const auto& s : ranking) total_timeouts += s.timed_out;
  EXPECT_GE(total_timeouts, 1);
  const std::string json = sweep::summary_json(result, ranking);
  EXPECT_NE(json.find("\"timed_out\""), std::string::npos);
  EXPECT_NE(json.find("\"time_budget_ms\""), std::string::npos);
  const std::string csv = sweep::per_instance_csv(result);
  EXPECT_NE(csv.find("timed_out"), std::string::npos);
}

TEST(SweepRunner, NoBudgetMeansNoTimeouts) {
  sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 7
topology ring:4
policy hlf
policy random
family chain count=2 length=6
)");
  spec.threads = 1;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  for (const sweep::InstanceResult& row : result.instances) {
    for (const char flag : row.timed_out) EXPECT_EQ(flag, 0);
  }
  for (const auto& s : sweep::summarize(result)) {
    EXPECT_EQ(s.timed_out, 0);
  }
}

const char* kAblationSpec = R"(
seed 314
comm paper
comm_sigma_us 3:11
comm_tau_us 5:13
comm_send_cpu per_task_output,per_message,offloaded
topology ring:4
topology line:3
policy hlf
policy heft
policy peft
policy random
family gnp count=3 tasks=10:16 edge_probability=0.15
family diamond count=2 width=4:8
)";

TEST(SweepSpec, ParsesCommAblationKnobs) {
  const sweep::SweepSpec spec = sweep::parse_spec(kAblationSpec);
  EXPECT_EQ(spec.comm.sigma_us.lo, 3.0);
  EXPECT_EQ(spec.comm.sigma_us.hi, 11.0);
  EXPECT_EQ(spec.comm.tau_us.lo, 5.0);
  EXPECT_EQ(spec.comm.tau_us.hi, 13.0);
  ASSERT_EQ(spec.comm.send_cpu.size(), 3u);
  EXPECT_EQ(spec.comm.send_cpu[0], SendCpu::PerTaskOutput);
  EXPECT_EQ(spec.comm.send_cpu[1], SendCpu::PerMessage);
  EXPECT_EQ(spec.comm.send_cpu[2], SendCpu::Offloaded);
  EXPECT_FALSE(spec.comm.is_paper_default());
  // Specs that do not mention the knobs pin the paper hardware.
  EXPECT_TRUE(small_spec().comm.is_paper_default());
  // The ParamDef table's defaults agree with CommAblation's.
  const auto defs = sweep::comm_param_defs();
  ASSERT_EQ(defs.size(), 2u);
  EXPECT_EQ(defs[0].range.lo, sweep::CommAblation{}.sigma_us.lo);
  EXPECT_EQ(defs[1].range.lo, sweep::CommAblation{}.tau_us.lo);
}

TEST(SweepSpec, ParsesHeftAndPeftPolicies) {
  const sweep::SweepSpec spec = sweep::parse_spec(kAblationSpec);
  ASSERT_EQ(spec.policies.size(), 4u);
  EXPECT_EQ(spec.policies[1].canonical(), "heft");
  EXPECT_EQ(spec.policies[2].canonical(), "peft");
}

TEST(SweepSpec, RejectsBadCommAblationInput) {
  EXPECT_THROW(sweep::parse_spec("comm_sigma_us 9:4\n"),
               std::invalid_argument);  // lo > hi
  EXPECT_THROW(sweep::parse_spec("comm_sigma_us -2\n"),
               std::invalid_argument);  // negative
  EXPECT_THROW(sweep::parse_spec("comm_tau_us 4.5:6\n"),
               std::invalid_argument);  // fractional us
  EXPECT_THROW(sweep::parse_spec("comm_send_cpu warp\n"),
               std::invalid_argument);  // unknown mode
  EXPECT_THROW(
      sweep::parse_spec("comm_send_cpu per_message,per_message\n"),
      std::invalid_argument);  // duplicate mode
  // Ablation knobs with communication disabled cannot silently no-op.
  EXPECT_THROW(sweep::parse_spec("comm off\ncomm_sigma_us 3:11\n"
                                 "topology ring:3\npolicy hlf\n"
                                 "family chain count=1\n"),
               std::invalid_argument);
}

TEST(SweepRunner, CommAblationDrawsAreDeterministicAndInRange) {
  sweep::SweepSpec spec = sweep::parse_spec(kAblationSpec);
  spec.threads = 1;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  bool any_non_default_mode = false;
  for (const sweep::InstanceResult& row : result.instances) {
    EXPECT_GE(row.sigma_us, 3);
    EXPECT_LE(row.sigma_us, 11);
    EXPECT_GE(row.tau_us, 5);
    EXPECT_LE(row.tau_us, 13);
    EXPECT_TRUE(row.send_cpu == "per_task_output" ||
                row.send_cpu == "per_message" || row.send_cpu == "offloaded")
        << row.send_cpu;
    if (row.send_cpu != "per_task_output") any_non_default_mode = true;
  }
  // With 10 instances and three modes the draw essentially surely leaves
  // the default at least once for this fixed seed.
  EXPECT_TRUE(any_non_default_mode);
  // The same (family, repetition) comm draw is shared across topologies
  // (paired cross-topology comparisons).
  EXPECT_EQ(result.instances[0].sigma_us, result.instances[1].sigma_us);
  EXPECT_EQ(result.instances[0].tau_us, result.instances[1].tau_us);
  EXPECT_EQ(result.instances[0].send_cpu, result.instances[1].send_cpu);
}

TEST(SweepRunner, AblationSummaryIsByteIdenticalAcrossRunsAndThreads) {
  sweep::SweepSpec spec = sweep::parse_spec(kAblationSpec);

  spec.threads = 1;
  const sweep::SweepResult single = sweep::run_sweep(spec);
  const std::string single_json =
      sweep::summary_json(single, sweep::summarize(single));

  spec.threads = 3;
  const sweep::SweepResult threaded = sweep::run_sweep(spec);
  const std::string threaded_json =
      sweep::summary_json(threaded, sweep::summarize(threaded));

  const sweep::SweepResult repeat = sweep::run_sweep(spec);
  const std::string repeat_json =
      sweep::summary_json(repeat, sweep::summarize(repeat));

  EXPECT_EQ(single_json, threaded_json);
  EXPECT_EQ(threaded_json, repeat_json);
  // The artifact echoes the ablation and carries the significance layer.
  EXPECT_NE(single_json.find("\"comm_sigma_us\""), std::string::npos);
  EXPECT_NE(single_json.find("\"comm_send_cpu\""), std::string::npos);
  EXPECT_NE(single_json.find("\"vs_best\""), std::string::npos);
  EXPECT_NE(single_json.find("\"wilcoxon_p\""), std::string::npos);
  // And the CSV exposes the per-instance draws.
  const std::string csv = sweep::per_instance_csv(single);
  EXPECT_NE(csv.find("sigma_us"), std::string::npos);
  EXPECT_NE(csv.find("send_cpu"), std::string::npos);
}

TEST(SweepSummary, SignificanceColumnsAreConsistent) {
  sweep::SweepSpec spec = sweep::parse_spec(kAblationSpec);
  spec.threads = 2;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  const std::vector<sweep::PolicySummary> ranking =
      sweep::summarize(result);
  ASSERT_EQ(ranking.size(), 4u);
  // The leader carries the neutral defaults.
  EXPECT_EQ(ranking[0].better_than_best, 0);
  EXPECT_EQ(ranking[0].worse_than_best, 0);
  EXPECT_DOUBLE_EQ(ranking[0].sign_p, 1.0);
  EXPECT_DOUBLE_EQ(ranking[0].wilcoxon_p, 1.0);
  const int instances = static_cast<int>(result.instances.size());
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    const sweep::PolicySummary& s = ranking[i];
    EXPECT_GE(s.better_than_best, 0);
    EXPECT_GE(s.worse_than_best, 0);
    EXPECT_LE(s.better_than_best + s.worse_than_best, instances);
    EXPECT_GT(s.sign_p, 0.0);
    EXPECT_LE(s.sign_p, 1.0);
    EXPECT_GT(s.wilcoxon_p, 0.0);
    EXPECT_LE(s.wilcoxon_p, 1.0);
  }
  // The sanity baseline loses to the leader decisively.
  const sweep::PolicySummary& worst = ranking.back();
  EXPECT_GT(worst.worse_than_best, worst.better_than_best);
}

TEST(SweepSpec, ParsesPolicyHyperparameters) {
  const sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 5
topology ring:3
policy gsa(chains=1,max_steps=6)
policy heft(ranking=peft)
policy heft
family chain count=1 length=4
)");
  ASSERT_EQ(spec.policies.size(), 3u);
  EXPECT_EQ(spec.policies[0].name, "gsa");
  ASSERT_EQ(spec.policies[0].args.size(), 2u);
  EXPECT_EQ(spec.policies[0].args[0].first, "chains");
  EXPECT_EQ(spec.policies[0].args[0].second, "1");
  EXPECT_EQ(spec.policies[0].canonical(), "gsa(chains=1,max_steps=6)");
  EXPECT_EQ(spec.policies[1].canonical(), "heft(ranking=peft)");
  // The overrides land in the effective construction config; the
  // untouched keys keep the legacy/spec-level values.
  const sched::PolicyConfig config =
      sweep::effective_policy_config(spec, spec.policies[0]);
  EXPECT_EQ(config.get_int("chains"), 1);
  EXPECT_EQ(config.get_int("max_steps"), 6);
  EXPECT_EQ(config.get_string("oracle"), "auto");
}

TEST(SweepSpec, RejectsBadPolicyLines) {
  const char* tail = "\ntopology ring:3\nfamily chain count=1\n";
  EXPECT_THROW(sweep::parse_spec(std::string("policy warp") + tail),
               std::invalid_argument);  // unknown registry name
  EXPECT_THROW(
      sweep::parse_spec(std::string("policy gsa(chain=2)") + tail),
      std::invalid_argument);  // unknown config key
  EXPECT_THROW(
      sweep::parse_spec(std::string("policy gsa(chains=two)") + tail),
      std::invalid_argument);  // mistyped value
  EXPECT_THROW(
      sweep::parse_spec(std::string("policy gsa(chains=2") + tail),
      std::invalid_argument);  // unbalanced parentheses
  EXPECT_THROW(
      sweep::parse_spec(std::string("policy gsa(chains=2, moves=8)") + tail),
      std::invalid_argument);  // space splits the token
  EXPECT_THROW(
      sweep::parse_spec(std::string("policy hlf(x)") + tail),
      std::invalid_argument);  // override without '='
  // Identical canonical lines are duplicates; the same base policy with
  // different hyperparameters is a legitimate ablation axis.
  EXPECT_THROW(sweep::parse_spec(std::string("policy gsa(chains=2)\n"
                                             "policy gsa(chains=2)\n"
                                             "policy_defaults gsa(chains=1)") +
                                 tail),
               std::invalid_argument);
  const sweep::SweepSpec ablation = sweep::parse_spec(
      std::string("policy gsa(chains=1)\npolicy gsa(chains=2)\n"
                  "policy_defaults gsa(max_steps=4)") +
      tail);
  EXPECT_EQ(ablation.policies.size(), 2u);
}

TEST(SweepRunner, PolicyHyperparametersApplyEndToEnd) {
  // `gsa(chains=1,max_steps=6)` must run exactly like a bare `gsa` line
  // under `policy_defaults gsa(chains=1,max_steps=6)` — same derived
  // seeds, same makespans — even when the defaults disagree (the
  // parenthesized overrides win).
  const char* body = R"(
seed 21
topology ring:4
policy hlf
family gnp count=2 tasks=10:14
)";
  sweep::SweepSpec with_args = sweep::parse_spec(
      std::string("policy gsa(chains=1,max_steps=6)\n"
                  "policy_defaults gsa(chains=3)\n") +
      body);
  sweep::SweepSpec with_defaults = sweep::parse_spec(
      std::string("policy gsa\npolicy_defaults gsa(chains=1,max_steps=6)\n") +
      body);
  with_args.threads = 1;
  with_defaults.threads = 1;
  const sweep::SweepResult a = sweep::run_sweep(with_args);
  const sweep::SweepResult b = sweep::run_sweep(with_defaults);
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].makespans, b.instances[i].makespans);
  }
  // The hyperparameterized label flows into the summary artifact.
  const std::string json = sweep::summary_json(a, sweep::summarize(a));
  EXPECT_NE(json.find("\"gsa(chains=1,max_steps=6)\""), std::string::npos);
}

TEST(SweepRunner, HeftRankingOverrideMatchesPeftColumn) {
  sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 11
topology hypercube8
policy heft(ranking=peft)
policy peft
family gnp count=3 tasks=12:20
)");
  spec.threads = 1;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  for (const sweep::InstanceResult& row : result.instances) {
    ASSERT_EQ(row.makespans.size(), 2u);
    EXPECT_EQ(row.makespans[0], row.makespans[1]);
  }
}

TEST(SweepSummary, HolmColumnIsConsistent) {
  sweep::SweepSpec spec = sweep::parse_spec(kAblationSpec);
  spec.threads = 2;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  const std::vector<sweep::PolicySummary> ranking =
      sweep::summarize(result);
  EXPECT_DOUBLE_EQ(ranking[0].wilcoxon_p_holm, 1.0);  // leader neutral
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    // Holm only ever inflates a p-value, never past 1.
    EXPECT_GE(ranking[i].wilcoxon_p_holm, ranking[i].wilcoxon_p);
    EXPECT_LE(ranking[i].wilcoxon_p_holm, 1.0);
  }
  const std::string json = sweep::summary_json(result, ranking);
  EXPECT_NE(json.find("\"wilcoxon_p_holm\""), std::string::npos);
  const std::string table = sweep::render_summary_table(result, ranking);
  EXPECT_NE(table.find("p(holm)"), std::string::npos);
}

TEST(JsonWriter, RendersDeterministicStructure) {
  JsonWriter w(3);
  w.begin_object();
  w.key("name");
  w.value("a\"b");
  w.key("ratio");
  w.value(1.5);
  w.key("list");
  w.begin_array();
  w.value(std::int64_t{1});
  w.value(true);
  w.end_array();
  w.key("empty");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"a\\\"b\",\n"
            "  \"ratio\": 1.500,\n"
            "  \"list\": [\n"
            "    1,\n"
            "    true\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}\n");
}

// Process-level sharding: running the spec as N shards and merging the
// artifacts must reproduce the unsharded run byte for byte — summary JSON
// and per-instance CSV — regardless of the merge order.  The online spec
// exercises the IEEE-754 bit-pattern round-trip of the floating-point
// metric columns (weighted flow, hit rate).
TEST(SweepShard, MergeReproducesUnshardedRunByteForByte) {
  sweep::SweepSpec spec = sweep::parse_spec(R"(
seed 7041
threads 2
policy hlf
policy etf
arrival_count 3
arrival_gap_us 200:600
arrival_deadline_slack 1.5
arrival_weight_max 3
family gnp count=3 tasks=10:14 edge_probability=0.2
family diamond count=2 width=3:5
topology ring:4
)");
  const sweep::SweepResult full = sweep::run_sweep(spec);
  const auto full_ranking = sweep::summarize(full);
  const std::string full_json = sweep::summary_json(full, full_ranking);
  const std::string full_csv = sweep::per_instance_csv(full);

  const int num_shards = 3;
  std::vector<std::string> artifacts;
  for (int k = 0; k < num_shards; ++k) {
    artifacts.push_back(sweep::run_shard(spec, k, num_shards));
  }
  // Merge order must not matter.
  std::rotate(artifacts.begin(), artifacts.begin() + 1, artifacts.end());

  const sweep::SweepResult merged = sweep::merge_shards(spec, artifacts);
  const auto merged_ranking = sweep::summarize(merged);
  EXPECT_EQ(sweep::summary_json(merged, merged_ranking), full_json);
  EXPECT_EQ(sweep::per_instance_csv(merged), full_csv);
}

TEST(SweepShard, MergeRejectsMismatchedOrIncompleteSets) {
  sweep::SweepSpec spec = small_spec();
  spec.threads = 2;
  std::vector<std::string> artifacts;
  for (int k = 0; k < 2; ++k) {
    artifacts.push_back(sweep::run_shard(spec, k, 2));
  }

  // Missing shard.
  EXPECT_THROW(sweep::merge_shards(spec, {artifacts[0]}),
               std::invalid_argument);
  // Duplicate shard.
  EXPECT_THROW(sweep::merge_shards(spec, {artifacts[0], artifacts[0]}),
               std::invalid_argument);
  // Shard from a different seed.
  sweep::SweepSpec other = small_spec();
  other.seed = 123456;
  EXPECT_THROW(
      sweep::merge_shards(spec,
                          {artifacts[0], sweep::run_shard(other, 1, 2)}),
      std::invalid_argument);
  // Not a shard artifact at all.
  EXPECT_THROW(sweep::merge_shards(spec, {"{\"format\": \"nope\"}"}),
               std::invalid_argument);
  // The complete set still merges.
  EXPECT_NO_THROW(sweep::merge_shards(spec, artifacts));
}

TEST(SweepShard, RunnerShardValidatesItsArguments) {
  const sweep::SweepSpec spec = small_spec();
  EXPECT_THROW(sweep::run_sweep_shard(spec, -1, 2), std::invalid_argument);
  EXPECT_THROW(sweep::run_sweep_shard(spec, 2, 2), std::invalid_argument);
  EXPECT_THROW(sweep::run_sweep_shard(spec, 0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace dagsched
