// sweep_anneal: the research path.  Runs the benchmark's copy of the
// example sweep spec (216 paper-scale instances, nine policies plus
// gsa(chains=1)) with the spec seed replaced by the workload seed, as the
// `sweep` tool would: run_sweep, summarize, summary_json,
// per_instance_csv.  The plan cache is off and nothing is parsed from the
// wire; the two annealers do most of the work.
//
// Repetitions run until the run's time is used (at least two); their
// summaries and CSVs must be byte-identical.  The traced run adds one
// traced repetition and a replay of every (instance, policy) cell on the
// same number of threads, timing the annealers (anneal_global for gsa,
// the registry's sa policy) and the list policies cell by cell.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/global_annealer.hpp"
#include "core/sa_scheduler.hpp"
#include "sched/registry.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "sweep/summary.hpp"
#include "topology/builders.hpp"

namespace perfbench {
namespace {

namespace sweep = dagsched::sweep;
namespace sched = dagsched::sched;

struct Repetition {
  double run_ms = 0.0;   ///< run_sweep alone
  double wall_ms = 0.0;  ///< run, summarize and write
  std::string summary;
  std::string csv;
  sweep::SweepResult result;
};

/// One repetition as the sweep tool runs it.  With a tracer, the three
/// phases are spans under one "sweep" span.
Repetition run_repetition(const sweep::SweepSpec& spec, Tracer* tracer) {
  Repetition rep;
  SpanScope root(tracer, "sweep", "rep");
  const std::int64_t t0 = now_ns();
  {
    SpanScope span(tracer, "sweep.run", "rep", root.id());
    rep.result = sweep::run_sweep(spec);
  }
  const std::int64_t t1 = now_ns();
  std::vector<sweep::PolicySummary> ranking;
  {
    SpanScope span(tracer, "sweep.summarize", "rep", root.id());
    ranking = sweep::summarize(rep.result);
  }
  {
    SpanScope span(tracer, "sweep.write", "rep", root.id());
    rep.summary = sweep::summary_json(rep.result, ranking);
    rep.csv = sweep::per_instance_csv(rep.result);
  }
  rep.run_ms = ms_between(t0, t1);
  rep.wall_ms = ms_between(t0, now_ns());
  return rep;
}

/// Cell-by-cell replay of one repetition's instances on `threads`
/// threads, each recording into its own tracer.
void replay_cells(const sweep::SweepSpec& spec,
                  const sweep::SweepResult& result, int threads,
                  Report& report) {
  std::vector<sched::PolicyConfig> configs;
  for (const sweep::PolicySpec& policy : spec.policies) {
    configs.push_back(sweep::effective_policy_config(spec, policy));
  }
  struct Worker {
    Tracer tracer;
    dagsched::sa::CostOracleStats oracle;
    double gsa_simulations = 0.0;
    double sa_iterations = 0.0;
    std::vector<std::pair<std::string, std::string>> failures;
  };
  std::vector<Worker> workers(static_cast<std::size_t>(threads));
  std::atomic<std::size_t> next{0};
  const auto work = [&](Worker& worker) {
    const auto& registry = sched::PolicyRegistry::instance();
    for (std::size_t i = next.fetch_add(1); i < result.instances.size();
         i = next.fetch_add(1)) {
      const sweep::InstanceResult& row = result.instances[i];
      const dagsched::TaskGraph graph = sweep::build_instance_graph(
          spec, row.family_index, row.repetition);
      const dagsched::Topology topology = dagsched::topo::by_name(row.topology);
      dagsched::CommModel comm = dagsched::CommModel::paper_default();
      comm.sigma = dagsched::us(row.sigma_us);
      comm.tau = dagsched::us(row.tau_us);
      comm.send_cpu = dagsched::send_cpu_from_string(row.send_cpu);
      for (std::size_t p = 0; p < configs.size(); ++p) {
        sched::PolicyConfig config = configs[p];
        config.seed = dagsched::Rng::stream(spec.seed, i * 64 + p).next_u64();
        const std::string tag = std::to_string(i) + "/" + std::to_string(p);
        std::vector<dagsched::ProcId> placement;
        try {
          if (config.policy() == "gsa") {
            dagsched::sa::GlobalAnnealOptions options;
            options.cooling.max_steps =
                static_cast<int>(config.get_int("max_steps"));
            options.num_chains = static_cast<int>(config.get_int("chains"));
            options.moves_per_temperature =
                static_cast<int>(config.get_int("moves"));
            options.patience = static_cast<int>(config.get_int("patience"));
            options.oracle = dagsched::sa::cost_oracle_kind_from_string(
                config.get_string("oracle"));
            options.seed = config.seed;
            SpanScope span(&worker.tracer, "core.gsa.run", tag);
            const dagsched::sa::GlobalAnnealResult annealed =
                dagsched::sa::anneal_global(graph, topology, comm, options);
            worker.oracle += annealed.oracle_stats;
            worker.gsa_simulations += annealed.simulations;
            placement = annealed.mapping;
          } else {
            const bool is_sa = config.policy() == "sa";
            std::unique_ptr<sched::ScheduledPolicy> policy;
            sched::PolicyRunOutcome outcome;
            {
              SpanScope span(&worker.tracer,
                             is_sa ? "core.sa.run"
                                   : "sched.list_run." + config.policy(),
                             tag);
              policy = registry.make(config.policy(), config);
              outcome = policy->run(graph, topology, comm);
            }
            if (is_sa) {
              const auto* impl = dynamic_cast<const dagsched::sa::SaScheduler*>(
                  policy->online_impl());
              if (impl != nullptr) {
                worker.sa_iterations +=
                    static_cast<double>(impl->stats().total_iterations);
              }
            }
            placement = outcome.result.placement;
          }
        } catch (const std::exception& error) {
          worker.failures.emplace_back(tag, error.what());
          continue;
        }
        const std::string bad = check_placement(placement, graph.num_tasks(), topology);
        if (!bad.empty()) worker.failures.emplace_back(tag, bad);
      }
    }
  };
  std::vector<std::thread> pool;
  for (Worker& worker : workers) pool.emplace_back(work, std::ref(worker));
  for (std::thread& thread : pool) thread.join();

  dagsched::sa::CostOracleStats oracle;
  double simulations = 0.0;
  double iterations = 0.0;
  for (const Worker& worker : workers) {
    report.tracer.append(worker.tracer);
    oracle += worker.oracle;
    simulations += worker.gsa_simulations;
    iterations += worker.sa_iterations;
    for (const auto& [tag, why] : worker.failures) report.fail("cell " + tag, why);
  }
  report.counter("core.gsa.simulations", simulations);
  report.counter("core.gsa.proposals", static_cast<double>(oracle.proposals));
  report.counter("core.gsa.accepts", static_cast<double>(oracle.accepts));
  report.counter("core.oracle.memo_hits", static_cast<double>(oracle.memo_hits));
  report.counter("core.oracle.full_replays",
                 static_cast<double>(oracle.full_replays));
  report.counter("core.oracle.replayed_epochs",
                 static_cast<double>(oracle.replayed_epochs));
  report.counter("core.oracle.baseline_epochs",
                 static_cast<double>(oracle.baseline_epochs));
  report.counter("core.sa.iterations", iterations);
}

/// The spec seed of repetition `rep`: each repetition sweeps a fresh
/// instance set, so one run averages over many draws of the spec.
std::uint64_t repetition_seed(std::uint64_t workload_seed, int rep) {
  return dagsched::Rng::stream(workload_seed, static_cast<std::uint64_t>(rep))
      .next_u64();
}

void check_repetition(const sweep::SweepSpec& spec, const Repetition& rep,
                      Report& report) {
  std::size_t hlf = spec.policies.size();
  for (std::size_t p = 0; p < spec.policies.size(); ++p) {
    if (spec.policies[p].canonical() == "hlf") hlf = p;
  }
  if (hlf == spec.policies.size()) {
    report.fail("spec", "the spec has no hlf policy to compare against");
    return;
  }
  const std::string prefix = std::to_string(spec.seed) + ":";
  if (static_cast<int>(rep.result.instances.size()) != spec.num_instances()) {
    report.fail(prefix + "sweep",
                "result has " + std::to_string(rep.result.instances.size()) +
                    " instances, spec " + std::to_string(spec.num_instances()));
  }
  for (const sweep::InstanceResult& row : rep.result.instances) {
    for (std::size_t p = 0; p < row.makespans.size(); ++p) {
      const std::string key =
          prefix + std::to_string(row.index) + "/" + std::to_string(p);
      if (row.makespans[p] <= 0 || row.makespans[hlf] <= 0) {
        report.fail(key, "non-positive makespan");
        continue;
      }
      report.makespan_ratio.push_back(static_cast<double>(row.makespans[p]) /
                                      static_cast<double>(row.makespans[hlf]));
    }
  }
}

}  // namespace

int run_sweep_anneal(const Options& options, Report& report) {
  // Set-up: parse the spec and expand every instance graph, three times.
  sweep::SweepSpec spec;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    spec = sweep::load_spec_file(options.spec);
    spec.seed = repetition_seed(options.seed, 0);
    spec.threads = options.threads;
    spec.validate();
    int tasks = 0;
    for (int f = 0; f < static_cast<int>(spec.families.size()); ++f) {
      for (int i = 0; i < spec.families[static_cast<std::size_t>(f)].count; ++i) {
        tasks += sweep::build_instance_graph(spec, f, i).num_tasks();
      }
    }
    report.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    if (rep == 0) {
      report.notes.push_back(std::to_string(spec.num_instances()) +
                             " instances (" + std::to_string(tasks) +
                             " tasks per topology), " +
                             std::to_string(spec.policies.size()) +
                             " policies, " + std::to_string(spec.threads) +
                             " threads");
    }
  }
  const std::int64_t cells =
      static_cast<std::int64_t>(spec.num_instances()) *
      static_cast<std::int64_t>(spec.policies.size());

  // Measured repetitions, each on its own seed: at least three, more while
  // the run's time allows.
  std::vector<Repetition> reps;
  const std::int64_t start = now_ns();
  for (int r = 0;; ++r) {
    spec.seed = repetition_seed(options.seed, r);
    reps.push_back(run_repetition(spec, nullptr));
    const Repetition& rep = reps.back();
    report.attempted += cells;
    report.latency_ms.push_back(rep.wall_ms);
    report.jobs_per_s.push_back(static_cast<double>(cells) /
                                (rep.wall_ms / 1e3));
    check_repetition(spec, rep, report);
    const double elapsed = ms_between(start, now_ns()) / 1e3;
    if (reps.size() >= 3 && elapsed + rep.wall_ms / 1e3 > options.seconds) {
      break;
    }
  }

  // Repeat the first repetition (traced in the traced run): its summary
  // and per-instance CSV must be byte-identical.
  spec.seed = repetition_seed(options.seed, 0);
  report.traced = options.trace;
  const Repetition again =
      run_repetition(spec, options.trace ? &report.tracer : nullptr);
  report.attempted += cells;
  if (again.summary != reps[0].summary) {
    report.fail("summary", "a repeated sweep's summary JSON differs");
  }
  if (again.csv != reps[0].csv) {
    report.fail("csv", "a repeated sweep's per-instance CSV differs");
  }

  if (options.trace) {
    report.sample("trace.untraced_ms").push_back(reps[0].wall_ms);
    report.sample("trace.traced_ms").push_back(again.wall_ms);
    report.sample("sweep.run_ms").push_back(reps[0].run_ms);
    report.counter("sweep.threads", spec.threads);
    replay_cells(spec, reps[0].result, spec.threads, report);
  }
  report.peak_rss_kb = self_peak_rss_kb();
  return 0;
}

}  // namespace perfbench
