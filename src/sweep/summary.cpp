#include "sweep/summary.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "core/incremental_cost.hpp"
#include "sweep/params.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace dagsched::sweep {

std::vector<PolicySummary> summarize(const SweepResult& result) {
  const std::size_t num_policies = result.spec.policies.size();
  require(!result.instances.empty(), "summarize: empty sweep");

  struct Tally {
    double makespan_sum_us = 0.0;
    int wins = 0;
    int timeouts = 0;
    double plan_gap_log_sum = 0.0;
    int plan_gap_count = 0;
  };
  std::vector<std::vector<double>> ratios(num_policies);
  std::vector<Tally> tallies(num_policies);
  for (const InstanceResult& row : result.instances) {
    require(row.makespans.size() == num_policies,
            "summarize: instance/policy shape mismatch");
    const Time best = row.best();
    require(best > 0, "summarize: nonpositive best makespan");
    for (std::size_t p = 0; p < num_policies; ++p) {
      const double ratio = static_cast<double>(row.makespans[p]) /
                           static_cast<double>(best);
      ratios[p].push_back(ratio);
      tallies[p].makespan_sum_us += to_us(row.makespans[p]);
      if (row.makespans[p] == best) ++tallies[p].wins;
      if (p < row.timed_out.size() && row.timed_out[p] != 0) {
        ++tallies[p].timeouts;
      }
      // Plan-vs-simulated gap: predicted is nonzero only for policies
      // that build an offline plan.  Under fault injection the
      // fault-free baseline (base_makespans) is the simulated side.
      if (p < row.predicted_makespans.size() &&
          row.predicted_makespans[p] > 0) {
        const Time simulated = p < row.base_makespans.size()
                                   ? row.base_makespans[p]
                                   : row.makespans[p];
        if (simulated > 0) {
          tallies[p].plan_gap_log_sum +=
              std::log(static_cast<double>(simulated) /
                       static_cast<double>(row.predicted_makespans[p]));
          ++tallies[p].plan_gap_count;
        }
      }
    }
  }

  const double instances = static_cast<double>(result.instances.size());
  std::vector<PolicySummary> summaries(num_policies);
  for (std::size_t p = 0; p < num_policies; ++p) {
    PolicySummary& s = summaries[p];
    s.policy = result.spec.policies[p].canonical();
    s.wins = tallies[p].wins;
    s.win_rate = tallies[p].wins / instances;
    double log_sum = 0.0;
    for (double ratio : ratios[p]) log_sum += std::log(ratio);
    s.geomean_ratio = std::exp(log_sum / instances);
    s.mean_ratio = mean(ratios[p]);
    s.p50_ratio = quantile(ratios[p], 0.5);
    s.p90_ratio = quantile(ratios[p], 0.9);
    s.max_ratio = *std::max_element(ratios[p].begin(), ratios[p].end());
    s.mean_makespan_us = tallies[p].makespan_sum_us / instances;
    s.timed_out = tallies[p].timeouts;
    if (tallies[p].plan_gap_count > 0) {
      s.plan_gap_geomean = std::exp(tallies[p].plan_gap_log_sum /
                                    tallies[p].plan_gap_count);
    }
  }

  std::sort(summaries.begin(), summaries.end(),
            [](const PolicySummary& a, const PolicySummary& b) {
              if (a.geomean_ratio != b.geomean_ratio) {
                return a.geomean_ratio < b.geomean_ratio;
              }
              if (a.win_rate != b.win_rate) return a.win_rate > b.win_rate;
              return a.policy < b.policy;
            });

  // Paired significance vs. the top-ranked policy: the same instances
  // under every policy are matched pairs, so the ranking table can say
  // whether each gap to the leader is meaningful (sweep-level statistical
  // tests; cf. the PISA critique of single-instance comparisons).
  std::size_t best_index = 0;
  for (std::size_t p = 0; p < num_policies; ++p) {
    if (result.spec.policies[p].canonical() == summaries[0].policy) {
      best_index = p;
    }
  }
  std::vector<double> log_diffs;
  log_diffs.reserve(result.instances.size());
  for (PolicySummary& s : summaries) {
    std::size_t policy_index = 0;
    for (std::size_t p = 0; p < num_policies; ++p) {
      if (result.spec.policies[p].canonical() == s.policy) policy_index = p;
    }
    if (policy_index == best_index) continue;  // leader row keeps defaults
    log_diffs.clear();
    for (const InstanceResult& row : result.instances) {
      const Time mine = row.makespans[policy_index];
      const Time best = row.makespans[best_index];
      if (mine < best) ++s.better_than_best;
      if (mine > best) ++s.worse_than_best;
      // log difference == log makespan ratio; scale-free across instances.
      log_diffs.push_back(std::log(static_cast<double>(mine)) -
                          std::log(static_cast<double>(best)));
    }
    s.sign_p = sign_test(s.better_than_best, s.worse_than_best).p_value;
    s.wilcoxon_p = wilcoxon_signed_rank(log_diffs).p_value;
  }

  // Every non-leader row tests against the same leader — a family of
  // m - 1 simultaneous comparisons, so control the family-wise error with
  // a Holm-Bonferroni pass over the Wilcoxon p-values.  The leader keeps
  // its neutral 1.0.
  std::vector<double> family;
  family.reserve(summaries.size());
  for (std::size_t i = 1; i < summaries.size(); ++i) {
    family.push_back(summaries[i].wilcoxon_p);
  }
  const std::vector<double> adjusted = holm_bonferroni(family);
  for (std::size_t i = 1; i < summaries.size(); ++i) {
    summaries[i].wilcoxon_p_holm = adjusted[i - 1];
  }

  // Robustness block: with fault injection on, every cell additionally
  // has a paired fault-free baseline, so "which policy degrades least"
  // is itself a paired comparison — sign/Wilcoxon/Holm against the
  // least-degrading policy, exactly like vs_best against the fastest.
  if (result.spec.faults.enabled()) {
    std::vector<std::vector<double>> degradations(num_policies);
    for (const InstanceResult& row : result.instances) {
      require(row.base_makespans.size() == num_policies &&
                  row.failed.size() == num_policies,
              "summarize: missing fault columns in a faulted sweep");
      for (std::size_t p = 0; p < num_policies; ++p) {
        require(row.base_makespans[p] > 0,
                "summarize: nonpositive baseline makespan");
        degradations[p].push_back(static_cast<double>(row.makespans[p]) /
                                  static_cast<double>(row.base_makespans[p]));
      }
    }
    const auto policy_index_of = [&](const std::string& name) {
      for (std::size_t p = 0; p < num_policies; ++p) {
        if (result.spec.policies[p].canonical() == name) return p;
      }
      require(false, "summarize: unknown policy in ranking");
      return std::size_t{0};
    };
    for (PolicySummary& s : summaries) {
      const std::size_t p = policy_index_of(s.policy);
      double retries_sum = 0.0;
      double restarts_sum = 0.0;
      int failures = 0;
      for (const InstanceResult& row : result.instances) {
        retries_sum += row.retries[p];
        restarts_sum += row.restarts[p];
        failures += row.failed[p] != 0 ? 1 : 0;
      }
      s.failures = failures;
      s.success_rate = 1.0 - failures / instances;
      s.mean_retries = retries_sum / instances;
      s.mean_restarts = restarts_sum / instances;
      double log_sum = 0.0;
      for (double d : degradations[p]) log_sum += std::log(d);
      s.geomean_degradation = std::exp(log_sum / instances);
      s.p99_degradation = quantile(degradations[p], 0.99);
    }
    // Least-degrading leader: smallest geomean degradation, ties toward
    // the fewest failures, then the name (all deterministic).
    std::size_t leader_row = 0;
    for (std::size_t i = 1; i < summaries.size(); ++i) {
      const PolicySummary& a = summaries[i];
      const PolicySummary& b = summaries[leader_row];
      if (a.geomean_degradation < b.geomean_degradation ||
          (a.geomean_degradation == b.geomean_degradation &&
           (a.failures < b.failures ||
            (a.failures == b.failures && a.policy < b.policy)))) {
        leader_row = i;
      }
    }
    const std::size_t leader = policy_index_of(summaries[leader_row].policy);
    std::vector<double> robust_family;
    std::vector<std::size_t> robust_rows;
    for (std::size_t i = 0; i < summaries.size(); ++i) {
      if (i == leader_row) continue;
      PolicySummary& s = summaries[i];
      const std::size_t p = policy_index_of(s.policy);
      log_diffs.clear();
      for (std::size_t r = 0; r < degradations[p].size(); ++r) {
        const double mine = degradations[p][r];
        const double theirs = degradations[leader][r];
        if (mine < theirs) ++s.robust_better;
        if (mine > theirs) ++s.robust_worse;
        log_diffs.push_back(std::log(mine) - std::log(theirs));
      }
      s.robust_sign_p = sign_test(s.robust_better, s.robust_worse).p_value;
      s.robust_wilcoxon_p = wilcoxon_signed_rank(log_diffs).p_value;
      robust_family.push_back(s.robust_wilcoxon_p);
      robust_rows.push_back(i);
    }
    const std::vector<double> robust_adjusted =
        holm_bonferroni(robust_family);
    for (std::size_t i = 0; i < robust_rows.size(); ++i) {
      summaries[robust_rows[i]].robust_wilcoxon_p_holm = robust_adjusted[i];
    }
  }

  // Online block: with arrivals enabled every cell carries the streamed
  // metrics, and "which policy serves the stream best" is again a paired
  // per-instance comparison — sign/Wilcoxon/Holm over weighted-flow
  // log-differences against the online leader (best mean hit-rate, ties
  // toward the smallest flow geomean, then the name).
  if (result.spec.arrivals.enabled()) {
    const auto policy_index_of = [&](const std::string& name) {
      for (std::size_t p = 0; p < num_policies; ++p) {
        if (result.spec.policies[p].canonical() == name) return p;
      }
      require(false, "summarize: unknown policy in ranking");
      return std::size_t{0};
    };
    std::vector<std::vector<double>> flow_ratios(num_policies);
    for (const InstanceResult& row : result.instances) {
      require(row.weighted_flow_us.size() == num_policies &&
                  row.hit_rate.size() == num_policies,
              "summarize: missing online columns in an online sweep");
      const double best = row.best_flow();
      require(best > 0, "summarize: nonpositive best weighted flow");
      for (std::size_t p = 0; p < num_policies; ++p) {
        flow_ratios[p].push_back(row.weighted_flow_us[p] / best);
      }
    }
    for (PolicySummary& s : summaries) {
      const std::size_t p = policy_index_of(s.policy);
      double hit_sum = 0.0;
      double p99_sum = 0.0;
      double lateness_sum = 0.0;
      for (const InstanceResult& row : result.instances) {
        hit_sum += row.hit_rate[p];
        p99_sum += to_us(row.p99_response[p]);
        lateness_sum += to_us(row.max_lateness[p]);
      }
      s.mean_hit_rate = hit_sum / instances;
      s.mean_p99_response_us = p99_sum / instances;
      s.mean_max_lateness_us = lateness_sum / instances;
      double log_sum = 0.0;
      for (double ratio : flow_ratios[p]) log_sum += std::log(ratio);
      s.geomean_flow_ratio = std::exp(log_sum / instances);
    }
    std::size_t leader_row = 0;
    for (std::size_t i = 1; i < summaries.size(); ++i) {
      const PolicySummary& a = summaries[i];
      const PolicySummary& b = summaries[leader_row];
      if (a.mean_hit_rate > b.mean_hit_rate ||
          (a.mean_hit_rate == b.mean_hit_rate &&
           (a.geomean_flow_ratio < b.geomean_flow_ratio ||
            (a.geomean_flow_ratio == b.geomean_flow_ratio &&
             a.policy < b.policy)))) {
        leader_row = i;
      }
    }
    const std::size_t leader = policy_index_of(summaries[leader_row].policy);
    std::vector<double> online_family;
    std::vector<std::size_t> online_rows;
    for (std::size_t i = 0; i < summaries.size(); ++i) {
      if (i == leader_row) continue;
      PolicySummary& s = summaries[i];
      const std::size_t p = policy_index_of(s.policy);
      log_diffs.clear();
      for (const InstanceResult& row : result.instances) {
        const double mine = row.weighted_flow_us[p];
        const double theirs = row.weighted_flow_us[leader];
        if (mine < theirs) ++s.online_better;
        if (mine > theirs) ++s.online_worse;
        log_diffs.push_back(std::log(mine) - std::log(theirs));
      }
      s.online_sign_p = sign_test(s.online_better, s.online_worse).p_value;
      s.online_wilcoxon_p = wilcoxon_signed_rank(log_diffs).p_value;
      online_family.push_back(s.online_wilcoxon_p);
      online_rows.push_back(i);
    }
    const std::vector<double> online_adjusted =
        holm_bonferroni(online_family);
    for (std::size_t i = 0; i < online_rows.size(); ++i) {
      summaries[online_rows[i]].online_wilcoxon_p_holm = online_adjusted[i];
    }
  }
  return summaries;
}

std::vector<std::string> fault_free_ranking(const SweepResult& result) {
  const std::size_t num_policies = result.spec.policies.size();
  require(result.spec.faults.enabled(),
          "fault_free_ranking: sweep has no fault ablation");
  require(!result.instances.empty(), "fault_free_ranking: empty sweep");
  struct Row {
    std::string policy;
    double geomean = 0.0;
    int wins = 0;
  };
  std::vector<Row> rows(num_policies);
  std::vector<double> log_sums(num_policies, 0.0);
  for (const InstanceResult& row : result.instances) {
    require(row.base_makespans.size() == num_policies,
            "fault_free_ranking: missing baselines");
    const Time best = *std::min_element(row.base_makespans.begin(),
                                        row.base_makespans.end());
    require(best > 0, "fault_free_ranking: nonpositive baseline");
    for (std::size_t p = 0; p < num_policies; ++p) {
      log_sums[p] += std::log(static_cast<double>(row.base_makespans[p]) /
                              static_cast<double>(best));
      if (row.base_makespans[p] == best) ++rows[p].wins;
    }
  }
  const double instances = static_cast<double>(result.instances.size());
  for (std::size_t p = 0; p < num_policies; ++p) {
    rows[p].policy = result.spec.policies[p].canonical();
    rows[p].geomean = std::exp(log_sums[p] / instances);
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.geomean != b.geomean) return a.geomean < b.geomean;
    if (a.wins != b.wins) return a.wins > b.wins;
    return a.policy < b.policy;
  });
  std::vector<std::string> ranking;
  ranking.reserve(rows.size());
  for (const Row& row : rows) ranking.push_back(row.policy);
  return ranking;
}

std::vector<std::string> online_ranking(const SweepResult& result) {
  const std::size_t num_policies = result.spec.policies.size();
  require(result.spec.arrivals.enabled(),
          "online_ranking: sweep has no arrival ablation");
  require(!result.instances.empty(), "online_ranking: empty sweep");
  struct Row {
    std::string policy;
    double hit_rate = 0.0;
    double flow_geomean = 0.0;
  };
  std::vector<Row> rows(num_policies);
  std::vector<double> hit_sums(num_policies, 0.0);
  std::vector<double> log_sums(num_policies, 0.0);
  for (const InstanceResult& row : result.instances) {
    require(row.weighted_flow_us.size() == num_policies &&
                row.hit_rate.size() == num_policies,
            "online_ranking: missing online columns");
    const double best = row.best_flow();
    require(best > 0, "online_ranking: nonpositive best weighted flow");
    for (std::size_t p = 0; p < num_policies; ++p) {
      hit_sums[p] += row.hit_rate[p];
      log_sums[p] += std::log(row.weighted_flow_us[p] / best);
    }
  }
  const double instances = static_cast<double>(result.instances.size());
  for (std::size_t p = 0; p < num_policies; ++p) {
    rows[p].policy = result.spec.policies[p].canonical();
    rows[p].hit_rate = hit_sums[p] / instances;
    rows[p].flow_geomean = std::exp(log_sums[p] / instances);
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.hit_rate != b.hit_rate) return a.hit_rate > b.hit_rate;
    if (a.flow_geomean != b.flow_geomean) {
      return a.flow_geomean < b.flow_geomean;
    }
    return a.policy < b.policy;
  });
  std::vector<std::string> ranking;
  ranking.reserve(rows.size());
  for (const Row& row : rows) ranking.push_back(row.policy);
  return ranking;
}

std::string summary_json(const SweepResult& result,
                         const std::vector<PolicySummary>& ranking) {
  const SweepSpec& spec = result.spec;
  JsonWriter w(/*double_decimals=*/6);
  w.begin_object();

  w.key("spec");
  w.begin_object();
  w.key("seed");
  w.value(spec.seed);
  w.key("comm");
  w.value(spec.comm_enabled ? "paper" : "off");
  const auto emit_range = [&w](const ParamRange& range) {
    if (range.is_single()) {
      w.value(range.lo);
    } else {
      w.begin_array();
      w.value(range.lo);
      w.value(range.hi);
      w.end_array();
    }
  };
  // Key names come from the comm ParamDef table (params.hpp), the same
  // names the spec parser accepts.
  const auto comm_defs = comm_param_defs();
  const ParamRange* comm_ranges[] = {&spec.comm.sigma_us,
                                     &spec.comm.tau_us};
  require(comm_defs.size() == std::size(comm_ranges),
          "summary_json: comm ParamDef table out of sync");
  for (std::size_t i = 0; i < comm_defs.size(); ++i) {
    w.key(comm_defs[i].name);
    emit_range(*comm_ranges[i]);
  }
  w.key("comm_send_cpu");
  w.begin_array();
  for (SendCpu mode : spec.comm.send_cpu) {
    w.value(dagsched::to_string(mode));
  }
  w.end_array();
  // Fault-ablation echo, only when enabled — zero-fault sweeps keep
  // their historical artifacts byte for byte.
  if (spec.faults.enabled()) {
    const auto fault_defs = fault_param_defs();
    const ParamRange* fault_ranges[] = {
        &spec.faults.machine_mtbf_us, &spec.faults.machine_mttr_us,
        &spec.faults.stall_mtbf_us,   &spec.faults.stall_us,
        &spec.faults.link_mtbf_us,    &spec.faults.link_mttr_us,
        &spec.faults.link_drop_prob,  &spec.faults.link_degrade_factor,
        &spec.faults.msg_timeout_us,  &spec.faults.retry_backoff_us};
    require(fault_defs.size() == std::size(fault_ranges),
            "summary_json: fault ParamDef table out of sync");
    for (std::size_t i = 0; i < fault_defs.size(); ++i) {
      w.key(fault_defs[i].name);
      emit_range(*fault_ranges[i]);
    }
    w.key("fault_max_retries");
    w.value(spec.faults.max_retries);
  }
  // Arrival-ablation echo, only when enabled — offline sweeps keep their
  // historical artifacts byte for byte.
  if (spec.arrivals.enabled()) {
    const auto arrival_defs = arrival_param_defs();
    const ParamRange* arrival_ranges[] = {
        &spec.arrivals.count,          &spec.arrivals.gap_us,
        &spec.arrivals.burst_prob,     &spec.arrivals.burst_mult,
        &spec.arrivals.deadline_slack, &spec.arrivals.jitter,
        &spec.arrivals.weight_max};
    require(arrival_defs.size() == std::size(arrival_ranges),
            "summary_json: arrival ParamDef table out of sync");
    for (std::size_t i = 0; i < arrival_defs.size(); ++i) {
      w.key(arrival_defs[i].name);
      emit_range(*arrival_ranges[i]);
    }
  }
  // The gsa oracle a bare `policy gsa` line resolves to (kAuto through the
  // registry's capability traits).  Kept so artifacts stay byte-identical
  // with those written when the oracle was a spec-level knob; per-line
  // `oracle=` overrides never change results, only their cost.
  w.key("gsa_oracle");
  w.value(sa::to_string(
      sa::resolve_cost_oracle_kind(sa::CostOracleKind::kAuto)));
  w.key("time_budget_ms");
  w.value(spec.time_budget_ms);
  w.key("topologies");
  w.begin_array();
  for (const std::string& t : spec.topologies) w.value(t);
  w.end_array();
  w.key("policies");
  w.begin_array();
  for (const PolicySpec& p : spec.policies) w.value(p.canonical());
  w.end_array();
  w.key("families");
  w.begin_array();
  for (const FamilySpec& family : spec.families) {
    w.begin_object();
    w.key("kind");
    w.value(to_string(family.kind));
    w.key("count");
    w.value(family.count);
    if (!family.params.empty()) {
      w.key("params");
      w.begin_object();
      for (const FamilyParam& param : family.params) {
        w.key(param.name);
        if (param.range.is_single()) {
          w.value(param.range.lo);
        } else {
          w.begin_array();
          w.value(param.range.lo);
          w.value(param.range.hi);
          w.end_array();
        }
      }
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();  // spec

  w.key("instances");
  w.value(static_cast<std::int64_t>(result.instances.size()));

  w.key("ranking");
  w.begin_array();
  for (const PolicySummary& s : ranking) {
    w.begin_object();
    w.key("policy");
    w.value(s.policy);
    w.key("wins");
    w.value(s.wins);
    w.key("win_rate");
    w.value(s.win_rate);
    w.key("geomean_ratio");
    w.value(s.geomean_ratio);
    w.key("mean_ratio");
    w.value(s.mean_ratio);
    w.key("p50_ratio");
    w.value(s.p50_ratio);
    w.key("p90_ratio");
    w.value(s.p90_ratio);
    w.key("max_ratio");
    w.value(s.max_ratio);
    w.key("mean_makespan_us");
    w.value(s.mean_makespan_us);
    w.key("timed_out");
    w.value(s.timed_out);
    w.key("plan_gap");
    w.value(s.plan_gap_geomean);
    w.key("vs_best");
    w.begin_object();
    w.key("better");
    w.value(s.better_than_best);
    w.key("worse");
    w.value(s.worse_than_best);
    w.key("sign_p");
    w.value(s.sign_p);
    w.key("wilcoxon_p");
    w.value(s.wilcoxon_p);
    w.key("wilcoxon_p_holm");
    w.value(s.wilcoxon_p_holm);
    w.end_object();
    if (spec.faults.enabled()) {
      w.key("robustness");
      w.begin_object();
      w.key("failures");
      w.value(s.failures);
      w.key("success_rate");
      w.value(s.success_rate);
      w.key("mean_retries");
      w.value(s.mean_retries);
      w.key("mean_restarts");
      w.value(s.mean_restarts);
      w.key("geomean_degradation");
      w.value(s.geomean_degradation);
      w.key("p99_degradation");
      w.value(s.p99_degradation);
      w.key("vs_least_degrading");
      w.begin_object();
      w.key("better");
      w.value(s.robust_better);
      w.key("worse");
      w.value(s.robust_worse);
      w.key("sign_p");
      w.value(s.robust_sign_p);
      w.key("wilcoxon_p");
      w.value(s.robust_wilcoxon_p);
      w.key("wilcoxon_p_holm");
      w.value(s.robust_wilcoxon_p_holm);
      w.end_object();
      w.end_object();
    }
    if (spec.arrivals.enabled()) {
      w.key("online");
      w.begin_object();
      w.key("mean_hit_rate");
      w.value(s.mean_hit_rate);
      w.key("geomean_flow_ratio");
      w.value(s.geomean_flow_ratio);
      w.key("mean_p99_response_us");
      w.value(s.mean_p99_response_us);
      w.key("mean_max_lateness_us");
      w.value(s.mean_max_lateness_us);
      w.key("vs_online_leader");
      w.begin_object();
      w.key("better");
      w.value(s.online_better);
      w.key("worse");
      w.value(s.online_worse);
      w.key("sign_p");
      w.value(s.online_sign_p);
      w.key("wilcoxon_p");
      w.value(s.online_wilcoxon_p);
      w.key("wilcoxon_p_holm");
      w.value(s.online_wilcoxon_p_holm);
      w.end_object();
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();

  if (spec.arrivals.enabled()) {
    // The online ranking of the same instances, next to the makespan
    // ranking above, so an environment-induced flip is visible inside
    // one artifact.
    w.key("online_ranking");
    w.begin_array();
    for (const std::string& policy : online_ranking(result)) {
      w.value(policy);
    }
    w.end_array();
  }

  if (spec.faults.enabled()) {
    // The fault-free ranking of the *same* instances and seeds, so a
    // robustness-induced flip is visible inside one artifact.
    w.key("fault_free_ranking");
    w.begin_array();
    for (const std::string& policy : fault_free_ranking(result)) {
      w.value(policy);
    }
    w.end_array();
  }

  w.end_object();
  return w.str();
}

std::string per_instance_csv(const SweepResult& result) {
  // The fault columns appear only for faulted sweeps, so zero-fault CSV
  // artifacts keep their historical header and rows byte for byte.
  const bool faulted = result.spec.faults.enabled();
  const bool online = result.spec.arrivals.enabled();
  std::vector<std::string> header = {
      "instance", "family",   "repetition", "topology",    "tasks",
      "edges",    "graph_seed", "sigma_us", "tau_us",      "send_cpu",
      "policy",   "makespan_us", "ratio",   "timed_out"};
  if (faulted) {
    header.insert(header.end(), {"base_makespan_us", "degradation",
                                 "retries", "restarts", "failed"});
  }
  if (online) {
    header.insert(header.end(),
                  {"arrival_seed", "workflows", "weighted_flow_us",
                   "flow_ratio", "hit_rate", "p99_response_us",
                   "max_lateness_us"});
  }
  CsvWriter csv(header);
  for (const InstanceResult& row : result.instances) {
    const Time best = row.best();
    for (std::size_t p = 0; p < result.spec.policies.size(); ++p) {
      const double ratio = static_cast<double>(row.makespans[p]) /
                           static_cast<double>(best);
      const bool timed_out =
          p < row.timed_out.size() && row.timed_out[p] != 0;
      std::vector<std::string> cells = {
          std::to_string(row.index), row.family,
          std::to_string(row.repetition), row.topology,
          std::to_string(row.tasks), std::to_string(row.edges),
          std::to_string(row.graph_seed),
          std::to_string(row.sigma_us), std::to_string(row.tau_us),
          row.send_cpu, result.spec.policies[p].canonical(),
          format_fixed(to_us(row.makespans[p]), 3),
          format_fixed(ratio, 6), timed_out ? "1" : "0"};
      if (faulted) {
        const double degradation =
            static_cast<double>(row.makespans[p]) /
            static_cast<double>(row.base_makespans[p]);
        cells.insert(cells.end(),
                     {format_fixed(to_us(row.base_makespans[p]), 3),
                      format_fixed(degradation, 6),
                      std::to_string(row.retries[p]),
                      std::to_string(row.restarts[p]),
                      row.failed[p] != 0 ? "1" : "0"});
      }
      if (online) {
        const double flow_ratio = row.weighted_flow_us[p] / row.best_flow();
        cells.insert(cells.end(),
                     {std::to_string(row.arrival_seed),
                      std::to_string(row.workflows),
                      format_fixed(row.weighted_flow_us[p], 3),
                      format_fixed(flow_ratio, 6),
                      format_fixed(row.hit_rate[p], 6),
                      format_fixed(to_us(row.p99_response[p]), 3),
                      format_fixed(to_us(row.max_lateness[p]), 3)});
      }
      csv.add_row(cells);
    }
  }
  return csv.render();
}

std::string render_summary_table(const SweepResult& result,
                                 const std::vector<PolicySummary>& ranking) {
  TableWriter table({"rank", "policy", "win rate", "geomean", "mean", "p50",
                     "p90", "max", "mean makespan", "timeouts", "plan gap",
                     "vs best", "p(sign)", "p(wilcoxon)", "p(holm)"});
  int rank = 1;
  for (const PolicySummary& s : ranking) {
    const bool is_best = rank == 1;
    table.add_row({std::to_string(rank++), s.policy,
                   format_percent(100.0 * s.win_rate, 1),
                   format_fixed(s.geomean_ratio, 4),
                   format_fixed(s.mean_ratio, 4),
                   format_fixed(s.p50_ratio, 4),
                   format_fixed(s.p90_ratio, 4),
                   format_fixed(s.max_ratio, 4),
                   format_fixed(s.mean_makespan_us, 1) + "us",
                   std::to_string(s.timed_out),
                   s.plan_gap_geomean > 0
                       ? format_fixed(s.plan_gap_geomean, 4)
                       : "-",
                   is_best ? "-"
                           : std::to_string(s.better_than_best) + "/" +
                                 std::to_string(s.worse_than_best),
                   is_best ? "-" : format_fixed(s.sign_p, 4),
                   is_best ? "-" : format_fixed(s.wilcoxon_p, 4),
                   is_best ? "-" : format_fixed(s.wilcoxon_p_holm, 4)});
  }
  std::string out = "Sweep: " +
                    std::to_string(result.instances.size()) +
                    " instances, ratios vs. per-instance best; vs best = "
                    "wins/losses against the top-ranked policy (paired "
                    "sign / Wilcoxon signed-rank p-values; p(holm) = "
                    "Holm-Bonferroni-adjusted Wilcoxon p over the vs-best "
                    "family; plan gap = geomean simulated/planned makespan "
                    "for offline-plan policies, - = no plan)\n";
  out += table.render();

  if (result.spec.faults.enabled()) {
    TableWriter robustness({"policy", "success", "geomean degr", "p99 degr",
                            "retries", "restarts", "vs least",
                            "p(holm)"});
    const PolicySummary* least = nullptr;
    for (const PolicySummary& s : ranking) {
      if (least == nullptr ||
          std::tie(s.geomean_degradation, s.failures, s.policy) <
              std::tie(least->geomean_degradation, least->failures,
                       least->policy)) {
        least = &s;
      }
    }
    for (const PolicySummary& s : ranking) {
      const bool leader = &s == least;
      robustness.add_row(
          {s.policy, format_percent(100.0 * s.success_rate, 1),
           format_fixed(s.geomean_degradation, 4),
           format_fixed(s.p99_degradation, 4),
           format_fixed(s.mean_retries, 2),
           format_fixed(s.mean_restarts, 2),
           leader ? "-"
                  : std::to_string(s.robust_better) + "/" +
                        std::to_string(s.robust_worse),
           leader ? "-" : format_fixed(s.robust_wilcoxon_p_holm, 4)});
    }
    out += "\nRobustness: degradation = faulted makespan / paired "
           "fault-free baseline (failures count as 8x); vs least = "
           "wins/losses against the least-degrading policy\n";
    out += robustness.render();
  }

  if (result.spec.arrivals.enabled()) {
    TableWriter online({"policy", "hit rate", "flow geomean", "p99 resp",
                        "max late", "vs leader", "p(holm)"});
    const PolicySummary* leader = nullptr;
    for (const PolicySummary& s : ranking) {
      if (leader == nullptr ||
          std::tie(leader->mean_hit_rate, s.geomean_flow_ratio, s.policy) <
              std::tie(s.mean_hit_rate, leader->geomean_flow_ratio,
                       leader->policy)) {
        leader = &s;
      }
    }
    for (const PolicySummary& s : ranking) {
      const bool is_leader = &s == leader;
      online.add_row(
          {s.policy, format_percent(100.0 * s.mean_hit_rate, 1),
           format_fixed(s.geomean_flow_ratio, 4),
           format_fixed(s.mean_p99_response_us, 1) + "us",
           format_fixed(s.mean_max_lateness_us, 1) + "us",
           is_leader ? "-"
                     : std::to_string(s.online_better) + "/" +
                           std::to_string(s.online_worse),
           is_leader ? "-" : format_fixed(s.online_wilcoxon_p_holm, 4)});
    }
    out += "\nOnline: flow ratio = weighted flow time / per-instance best; "
           "vs leader = wins/losses (weighted flow) against the online "
           "leader (best hit rate, then flow geomean)\n";
    out += online.render();
  }
  return out;
}

}  // namespace dagsched::sweep
