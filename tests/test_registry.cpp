// The scheduler registry (sched/registry.hpp): registration rules,
// actionable error messages, capability-flag round-trips, typed config
// behavior, and the capability-driven oracle resolution the global
// annealer relies on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/annealer.hpp"
#include "core/global_annealer.hpp"
#include "core/incremental_cost.hpp"
#include "graph/generators.hpp"
#include "sched/registry.hpp"
#include "topology/builders.hpp"

namespace dagsched {
namespace {

using sched::ConfigValueKind;
using sched::PolicyConfig;
using sched::PolicyDescriptor;
using sched::PolicyRegistry;

/// The message of the invalid_argument `fn` throws; fails the test when
/// nothing is thrown.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return {};
}

PolicyDescriptor dummy_descriptor(std::string name) {
  PolicyDescriptor d;
  d.name = std::move(name);
  d.doc = "test policy";
  d.factory = [](const PolicyConfig&) {
    return std::unique_ptr<sched::ScheduledPolicy>();
  };
  return d;
}

TEST(PolicyRegistry, DuplicateNameRegistrationRejected) {
  PolicyRegistry registry;
  registry.add(dummy_descriptor("alpha"));
  const std::string message =
      thrown_message([&] { registry.add(dummy_descriptor("alpha")); });
  EXPECT_NE(message.find("duplicate name 'alpha'"), std::string::npos)
      << message;
  // The registry is unchanged by the failed registration.
  EXPECT_EQ(registry.names(), std::vector<std::string>{"alpha"});
}

TEST(PolicyRegistry, EmptyNameAndDuplicateKeysRejected) {
  PolicyRegistry registry;
  EXPECT_THROW(registry.add(dummy_descriptor("")), std::invalid_argument);
  PolicyDescriptor twice = dummy_descriptor("twice");
  twice.keys = {{"steps", ConfigValueKind::Int, "1", ""},
                {"steps", ConfigValueKind::Int, "2", ""}};
  EXPECT_THROW(registry.add(std::move(twice)), std::invalid_argument);
}

TEST(PolicyRegistry, UnknownPolicyErrorListsKnownNames) {
  const auto& registry = PolicyRegistry::instance();
  const std::string message =
      thrown_message([&] { registry.descriptor("warp"); });
  EXPECT_NE(message.find("unknown policy 'warp'"), std::string::npos);
  // Actionable: the error enumerates what *is* available.
  for (const char* name : {"sa", "gsa", "hlf", "heft", "random"}) {
    EXPECT_NE(message.find(name), std::string::npos) << message;
  }
  EXPECT_EQ(registry.find("warp"), nullptr);
}

TEST(PolicyRegistry, UnknownConfigKeyErrorListsKnownKeys) {
  PolicyConfig config = PolicyRegistry::instance().make_config("gsa");
  const std::string message =
      thrown_message([&] { config.set("chain", "4"); });
  EXPECT_NE(message.find("has no config key 'chain'"), std::string::npos);
  EXPECT_NE(message.find("chains"), std::string::npos) << message;
  // Keyless policies say so instead of listing nothing.
  PolicyConfig keyless = PolicyRegistry::instance().make_config("etf");
  const std::string none =
      thrown_message([&] { keyless.set("x", "1"); });
  EXPECT_NE(none.find("takes no configuration"), std::string::npos) << none;
}

TEST(PolicyRegistry, MistypedConfigValuesRejected) {
  PolicyConfig config = PolicyRegistry::instance().make_config("gsa");
  EXPECT_THROW(config.set("chains", "many"), std::invalid_argument);
  EXPECT_THROW(config.set("chains", "2.5"), std::invalid_argument);
  EXPECT_THROW(config.set_real("chains", 2.0), std::invalid_argument);
  EXPECT_THROW(config.set_string("chains", "2"), std::invalid_argument);
  EXPECT_THROW(config.set_int("oracle", 1), std::invalid_argument);
  config.set("chains", "8");
  EXPECT_EQ(config.get_int("chains"), 8);
  config.set_string("oracle", "full");
  EXPECT_EQ(config.get_string("oracle"), "full");
  PolicyConfig sa_config = PolicyRegistry::instance().make_config("sa");
  EXPECT_THROW(sa_config.set("wb", "heavy"), std::invalid_argument);
  sa_config.set("wb", "0.25");
  EXPECT_DOUBLE_EQ(sa_config.get_real("wb"), 0.25);
  // Typed getters enforce the declared kind (a caller bug -> logic_error).
  EXPECT_THROW(config.get_real("chains"), std::logic_error);
  EXPECT_THROW(config.get_int("oracle"), std::logic_error);
  EXPECT_THROW(config.get_int("nope"), std::logic_error);
  // Typed setters reject unknown keys like set() does.
  EXPECT_THROW(config.set_int("nope", 1), std::invalid_argument);
  EXPECT_THROW(config.set_real("nope", 1.0), std::invalid_argument);
  EXPECT_THROW(config.set_string("nope", "x"), std::invalid_argument);
}

// Config values arrive in every schedd policy call (`sa(wb=0.5)`).  This
// table pins the forms std::stod/std::stoll accepted, which the
// locale-free readers keep: leading whitespace, a '+', and for reals
// "inf", "nan" and hex floats; out-of-range values and trailing bytes are
// rejected.
TEST(PolicyRegistry, ConfigNumbersKeepTheirAcceptedForms) {
  struct RealRow {
    const char* text;
    bool accepted;
    double value;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const RealRow real_rows[] = {
      {"0.25", true, 0.25},   {"+0.5", true, 0.5},    {" 0.5", true, 0.5},
      {"\t\n0.5", true, 0.5}, {".5", true, 0.5},      {"5.", true, 5.0},
      {"-0.5", true, -0.5},   {"1e2", true, 100.0},   {"0x10", true, 16.0},
      {"0X1p-2", true, 0.25}, {"inf", true, inf},     {"-Infinity", true, -inf},
      {"1e400", false, 0.0},  {"-1e400", false, 0.0}, {"1e-310", false, 0.0},
      {"1e-400", false, 0.0}, {"0.5 ", false, 0.0},   {"1,5", false, 0.0},
      {"", false, 0.0},       {"+-1", false, 0.0},    {"0x", false, 0.0},
      {"heavy", false, 0.0},
  };
  for (const RealRow& row : real_rows) {
    PolicyConfig config = PolicyRegistry::instance().make_config("sa");
    if (!row.accepted) {
      EXPECT_EQ(thrown_message([&] { config.set("wb", row.text); }),
                std::string("policy 'sa': config key 'wb' takes a real "
                            "number, got '") +
                    row.text + "'");
      continue;
    }
    config.set("wb", row.text);
    EXPECT_EQ(config.get_real("wb"), row.value) << "'" << row.text << "'";
  }
  PolicyConfig nan_config = PolicyRegistry::instance().make_config("sa");
  nan_config.set("wb", "nan");
  EXPECT_TRUE(std::isnan(nan_config.get_real("wb")));

  struct IntRow {
    const char* text;
    bool accepted;
    std::int64_t value;
  };
  const IntRow int_rows[] = {
      {"8", true, 8},
      {"+8", true, 8},
      {" 8", true, 8},
      {"-3", true, -3},
      {"007", true, 7},
      {"9223372036854775807", true, std::numeric_limits<std::int64_t>::max()},
      {"-9223372036854775808", true, std::numeric_limits<std::int64_t>::min()},
      {"9223372036854775808", false, 0},
      {"0x10", false, 0},
      {"1e3", false, 0},
      {"2.5", false, 0},
      {"8 ", false, 0},
      {"+-8", false, 0},
      {"inf", false, 0},
      {"", false, 0},
  };
  for (const IntRow& row : int_rows) {
    PolicyConfig config = PolicyRegistry::instance().make_config("gsa");
    if (!row.accepted) {
      EXPECT_EQ(thrown_message([&] { config.set("chains", row.text); }),
                std::string("policy 'gsa': config key 'chains' takes an "
                            "integer, got '") +
                    row.text + "'");
      continue;
    }
    config.set("chains", row.text);
    EXPECT_EQ(config.get_int("chains"), row.value) << "'" << row.text << "'";
  }
}

TEST(PolicyRegistry, SemanticallyInvalidValuesRejectedByFactories) {
  const auto& registry = PolicyRegistry::instance();
  PolicyConfig gsa = registry.make_config("gsa");
  gsa.set_int("chains", 0);  // host-dependent chain counts are banned
  EXPECT_THROW(registry.make("gsa", gsa), std::invalid_argument);
  PolicyConfig oracle = registry.make_config("gsa");
  oracle.set_string("oracle", "warp");
  EXPECT_THROW(registry.make("gsa", oracle), std::invalid_argument);
  PolicyConfig sa = registry.make_config("sa");
  sa.set_real("wb", 1.5);  // weights must stay a convex combination
  EXPECT_THROW(registry.make("sa", sa), std::invalid_argument);
  PolicyConfig heft = registry.make_config("heft");
  heft.set_string("ranking", "upward");
  EXPECT_THROW(registry.make("heft", heft), std::invalid_argument);
  // A config built for one policy cannot construct another.
  EXPECT_THROW(registry.make("peft", registry.make_config("heft")),
               std::invalid_argument);
}

TEST(PolicyRegistry, CapabilityFlagsRoundTrip) {
  // The builtin capability table, asserted flag by flag: these traits are
  // load-bearing (oracle eligibility, determinism contract), so a silent
  // registration change must fail a test.
  struct Expected {
    const char* name;
    bool deterministic, stateless, pure, rng, offline, online;
  };
  const Expected expected[] = {
      {"sa", false, false, false, true, false, false},
      {"gsa", false, false, false, true, true, false},
      {"hlf", true, true, true, false, false, true},
      {"hlf-mincomm", true, true, false, false, false, true},
      {"etf", true, true, false, false, false, true},
      {"list-hlf", true, true, true, false, false, false},
      {"heft", true, true, false, false, true, false},
      {"peft", true, true, false, false, true, false},
      {"random", false, false, false, true, false, true},
      {"dagprio", true, true, false, false, false, true},
      {"pinned", true, true, true, false, false, false},
  };
  const auto& registry = PolicyRegistry::instance();
  for (const Expected& e : expected) {
    const PolicyDescriptor& d = registry.descriptor(e.name);
    EXPECT_EQ(d.caps.deterministic, e.deterministic) << e.name;
    EXPECT_EQ(d.caps.stateless_per_epoch, e.stateless) << e.name;
    EXPECT_EQ(d.caps.pure_decision, e.pure) << e.name;
    EXPECT_EQ(d.caps.uses_rng, e.rng) << e.name;
    EXPECT_EQ(d.caps.offline_plan, e.offline) << e.name;
    EXPECT_EQ(d.caps.online, e.online) << e.name;
    EXPECT_FALSE(d.doc.empty()) << e.name;
  }
}

TEST(PolicyRegistry, ListsTheTenSelectablePoliciesInRegistrationOrder) {
  const std::vector<std::string> expected = {
      "sa",  "gsa",      "hlf",  "hlf-mincomm", "etf",
      "list-hlf", "heft", "peft", "random", "dagprio"};
  EXPECT_EQ(PolicyRegistry::instance().names(), expected);
}

TEST(PolicyRegistry, PinnedIsDescriptorOnly) {
  const auto& registry = PolicyRegistry::instance();
  // Present for capability queries ...
  ASSERT_NE(registry.find("pinned"), nullptr);
  // ... but not selectable: it is not listed and cannot be built.
  for (const std::string& name : registry.names()) {
    EXPECT_NE(name, "pinned");
  }
  const std::string message =
      thrown_message([&] { registry.make("pinned"); });
  EXPECT_NE(message.find("descriptor-only"), std::string::npos) << message;
}

TEST(PolicyRegistry, DefaultsMirrorTheUnderlyingOptionStructs) {
  const auto& registry = PolicyRegistry::instance();
  PolicyConfig sa = registry.make_config("sa");
  const sa::AnnealOptions anneal_defaults;
  EXPECT_EQ(sa.get_int("max_steps"), anneal_defaults.cooling.max_steps);
  EXPECT_EQ(sa.get_int("moves"), anneal_defaults.moves_per_temperature);
  EXPECT_DOUBLE_EQ(sa.get_real("wb"), anneal_defaults.wb);
  PolicyConfig gsa = registry.make_config("gsa");
  const sa::GlobalAnnealOptions gsa_defaults;
  // chains diverges deliberately: 0 (host-resolved) is banned here.
  EXPECT_EQ(gsa.get_int("chains"), 2);
  EXPECT_EQ(gsa.get_int("patience"), gsa_defaults.patience);
  EXPECT_EQ(gsa.get_string("oracle"), "auto");
  EXPECT_EQ(registry.make_config("heft").get_string("ranking"), "heft");
  EXPECT_EQ(registry.make_config("peft").get_string("ranking"), "peft");
}

TEST(PolicyRegistry, HeftRankingKeyIsThePeftSwitch) {
  // heft(ranking=peft) must be the same algorithm as peft.
  const auto& registry = PolicyRegistry::instance();
  gen::GnpDagOptions options;
  options.num_tasks = 24;
  options.edge_probability = 0.15;
  options.seed = 0xDECAF;
  const TaskGraph graph = gen::gnp_dag(options);
  const Topology machine = topo::hypercube(3);
  const CommModel comm = CommModel::paper_default();

  PolicyConfig as_peft = registry.make_config("heft");
  as_peft.set_string("ranking", "peft");
  const auto heft_run =
      registry.make("heft", as_peft)->run(graph, machine, comm);
  const auto peft_run = registry.make("peft")->run(graph, machine, comm);
  EXPECT_EQ(heft_run.result.makespan, peft_run.result.makespan);
  EXPECT_EQ(heft_run.result.placement, peft_run.result.placement);
}

TEST(PolicyRegistry, OracleAutoResolvesViaThePureDecisionFlag) {
  // The global annealer's default oracle is kAuto; it resolves to the
  // incremental oracle precisely because the registry says the pinned
  // replay policy's decision is a pure function of (ready, idle, mapping,
  // levels).  An explicit choice always passes through.
  EXPECT_TRUE(PolicyRegistry::instance()
                  .descriptor("pinned")
                  .caps.pure_decision);
  EXPECT_EQ(sa::resolve_cost_oracle_kind(sa::CostOracleKind::kAuto),
            sa::CostOracleKind::kIncremental);
  EXPECT_EQ(sa::resolve_cost_oracle_kind(sa::CostOracleKind::kFullReplay),
            sa::CostOracleKind::kFullReplay);
  EXPECT_EQ(sa::resolve_cost_oracle_kind(sa::CostOracleKind::kIncremental),
            sa::CostOracleKind::kIncremental);
  EXPECT_EQ(sa::GlobalAnnealOptions{}.oracle, sa::CostOracleKind::kAuto);
  // The string forms round-trip, including the new "auto".
  for (const sa::CostOracleKind kind :
       {sa::CostOracleKind::kAuto, sa::CostOracleKind::kFullReplay,
        sa::CostOracleKind::kIncremental}) {
    EXPECT_EQ(sa::cost_oracle_kind_from_string(sa::to_string(kind)), kind);
  }
}

TEST(PolicyRegistry, MalformedRegistrationDefaultFailsAtConfigBuild) {
  PolicyRegistry registry;
  PolicyDescriptor bad = dummy_descriptor("bad");
  bad.keys = {{"steps", ConfigValueKind::Int, "lots", ""}};
  registry.add(std::move(bad));
  EXPECT_THROW(registry.make_config("bad"), std::invalid_argument);
}

TEST(PolicyCall, ParsesBareAndParenthesizedCalls) {
  const sched::PolicyCall bare = sched::parse_policy_call("heft");
  EXPECT_EQ(bare.name, "heft");
  EXPECT_TRUE(bare.args.empty());
  EXPECT_EQ(bare.canonical(), "heft");

  const sched::PolicyCall call =
      sched::parse_policy_call("gsa(chains=4,max_steps=16)");
  EXPECT_EQ(call.name, "gsa");
  ASSERT_EQ(call.args.size(), 2u);
  EXPECT_EQ(call.args[0].first, "chains");
  EXPECT_EQ(call.args[0].second, "4");
  EXPECT_EQ(call.args[1].first, "max_steps");
  EXPECT_EQ(call.args[1].second, "16");
  // Canonical form keeps the caller's override order, no spaces.
  EXPECT_EQ(call.canonical(), "gsa(chains=4,max_steps=16)");
}

TEST(PolicyCall, RejectsMalformedCalls) {
  EXPECT_EQ(thrown_message([] { sched::parse_policy_call("gsa(chains=4"); }),
            "policy 'gsa(chains=4' has unbalanced parentheses");
  EXPECT_EQ(
      thrown_message([] { sched::parse_policy_call("gsa(chains)"); }),
      "policy override 'chains' must be key=value (no spaces)");
  EXPECT_EQ(thrown_message([] { sched::parse_policy_call("(chains=4)"); }),
            "policy name is empty in '(chains=4)'");
}

TEST(PolicyCall, ConfigForCallAppliesOverrides) {
  const sched::PolicyConfig config = sched::config_for_call(
      sched::parse_policy_call("gsa(chains=4,max_steps=16)"));
  EXPECT_EQ(config.get_int("chains"), 4);
  EXPECT_EQ(config.get_int("max_steps"), 16);
  EXPECT_THROW(
      sched::config_for_call(sched::parse_policy_call("gsa(nope=1)")),
      std::invalid_argument);
}

TEST(PolicyConfigCanonical, ListsEveryKeyInDescriptorOrder) {
  sched::PolicyConfig config =
      PolicyRegistry::instance().make_config("heft");
  EXPECT_EQ(config.canonical(), "heft(ranking=heft,on_fault=wait)");
  config.set_string("ranking", "peft");
  EXPECT_EQ(config.canonical(), "heft(ranking=peft,on_fault=wait)");
  // Real values render shortest-round-trip, not with trailing zeros.
  sched::PolicyConfig sa = PolicyRegistry::instance().make_config("sa");
  EXPECT_NE(sa.canonical().find("wb=0.5"), std::string::npos);
}

TEST(CapabilityFormat, SharedFormatterTokens) {
  sched::PolicyCapabilities caps;
  caps.deterministic = false;
  EXPECT_EQ(sched::capability_string(caps), "-");
  caps.deterministic = true;
  caps.offline_plan = true;
  caps.online = true;
  EXPECT_EQ(sched::capability_string(caps),
            "deterministic,offline-plan,online");
  sched::PolicyCapabilities rng_caps;
  rng_caps.deterministic = false;
  rng_caps.uses_rng = true;
  rng_caps.replan_on_fault = true;
  EXPECT_EQ(sched::capability_string(rng_caps), "rng,replan-on-fault");

  const PolicyDescriptor& heft =
      PolicyRegistry::instance().descriptor("heft");
  EXPECT_EQ(sched::config_keys_string(heft),
            "ranking=heft, on_fault=wait");
  const PolicyDescriptor& random =
      PolicyRegistry::instance().descriptor("random");
  EXPECT_EQ(sched::config_keys_string(random), "-");
}

}  // namespace
}  // namespace dagsched
