// ladder_large: workflow-scale graphs served one at a time through
// ScheduleService::serve with the plan cache on, so every job misses and
// canonicalizes.  gnp-style DAGs at 1k, 4k and 16k tasks under hlf, heft,
// etf and dagprio, plus the symmetric fork_join(8, 64) and
// fork_join(8, 256) under hlf.  No annealing runs.
//
// Each pass serves every job against a fresh service; passes repeat until
// the run's time is used.  A check then runs every job once more through
// PolicyRegistry::make(...)->run and requires the same makespan.  The
// traced run adds one traced pass and probes the layers under serve:
// canonicalize_instance per graph, the registry run per job, heft_schedule
// and an HLF simulation per gnp rung.

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "graph/generators.hpp"
#include "sched/heft.hpp"
#include "sched/hlf.hpp"
#include "sched/registry.hpp"
#include "service/graph_hash.hpp"
#include "service/service.hpp"
#include "sim/engine.hpp"
#include "topology/builders.hpp"

namespace perfbench {
namespace {

using dagsched::us;
namespace service = dagsched::service;

constexpr std::size_t kCacheCapacity = 256;

struct LadderGraph {
  std::string label;  ///< gnp1k / gnp4k / gnp16k / fj528 / fj2064
  std::string size;   ///< n1k / n4k / n16k for the gnp rungs, else ""
  dagsched::TaskGraph graph;
};

struct Job {
  int graph = 0;  ///< index into the graph list
  std::string policy;
  service::ScheduleRequest request;
};

struct Workload {
  std::vector<LadderGraph> graphs;
  std::vector<Job> jobs;
};

Workload make_workload(std::uint64_t seed) {
  Workload workload;
  const int sizes[] = {1000, 4000, 16000};
  for (int rung = 0; rung < 3; ++rung) {
    const std::string k = std::to_string(sizes[rung] / 1000) + "k";
    const std::uint64_t graph_seed =
        dagsched::Rng::stream(seed, static_cast<std::uint64_t>(rung))
            .next_u64();
    workload.graphs.push_back(
        {"gnp" + k, "n" + k, gnp_style_dag(sizes[rung], 4.0, graph_seed)});
  }
  for (const int width : {64, 256}) {
    dagsched::TaskGraph graph =
        dagsched::gen::fork_join(8, width, us(std::int64_t{10}),
                                 us(std::int64_t{20}), us(std::int64_t{10}),
                                 us(std::int64_t{4}));
    const std::string label = "fj" + std::to_string(graph.num_tasks());
    workload.graphs.push_back({label, "", std::move(graph)});
  }
  for (int g = 0; g < static_cast<int>(workload.graphs.size()); ++g) {
    const bool gnp = !workload.graphs[static_cast<std::size_t>(g)].size.empty();
    const std::vector<std::string> policies =
        gnp ? std::vector<std::string>{"hlf", "heft", "etf", "dagprio"}
            : std::vector<std::string>{"hlf"};
    for (const std::string& policy : policies) {
      Job job;
      job.graph = g;
      job.policy = policy;
      job.request.id = workload.graphs[static_cast<std::size_t>(g)].label +
                       "/" + policy;
      job.request.graph = workload.graphs[static_cast<std::size_t>(g)].graph;
      job.request.policy = policy;
      workload.jobs.push_back(std::move(job));
    }
  }
  return workload;
}

struct PassResult {
  double wall_s = 0.0;
  std::vector<service::ScheduleResponse> responses;
};

/// Serves every job once against a fresh cache.  With a tracer, each
/// serve call gets a span named by its cache outcome.
PassResult run_pass(const Workload& workload, Report& report,
                    std::vector<double>* latency_ms, Tracer* tracer) {
  service::ScheduleService svc(kCacheCapacity);
  PassResult pass;
  const std::int64_t start = now_ns();
  for (const Job& job : workload.jobs) {
    SpanScope span(tracer, "service.serve", job.request.id);
    const std::int64_t t0 = now_ns();
    pass.responses.push_back(svc.serve(job.request));
    const std::int64_t t1 = now_ns();
    span.rename(std::string("service.serve.") +
                service::to_string(pass.responses.back().cache));
    if (latency_ms != nullptr) latency_ms->push_back(ms_between(t0, t1));
  }
  pass.wall_s = ms_between(start, now_ns()) / 1e3;
  report.attempted += static_cast<std::int64_t>(workload.jobs.size());
  return pass;
}

void check_pass(const Workload& workload, const PassResult& pass,
                const dagsched::Topology& topology, Report& report) {
  std::vector<dagsched::Time> hlf(workload.graphs.size(), 0);
  for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
    if (workload.jobs[j].policy == "hlf") {
      hlf[static_cast<std::size_t>(workload.jobs[j].graph)] =
          pass.responses[j].makespan;
    }
  }
  for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
    const Job& job = workload.jobs[j];
    const service::ScheduleResponse& response = pass.responses[j];
    if (response.status != service::ResponseStatus::Ok) {
      report.fail(job.request.id, std::string("status ") +
                                      service::to_string(response.status) +
                                      ": " + response.error);
      continue;
    }
    if (response.cache != service::CacheStatus::Miss) {
      report.fail(job.request.id,
                  std::string("expected a cache miss, got ") +
                      service::to_string(response.cache));
    }
    const std::string bad = check_placement(
        response.placement, job.request.graph.num_tasks(), topology);
    if (!bad.empty()) report.fail(job.request.id, bad);
    const dagsched::Time reference =
        hlf[static_cast<std::size_t>(job.graph)];
    if (response.makespan <= 0 || reference <= 0) {
      report.fail(job.request.id, "non-positive makespan");
      continue;
    }
    report.makespan_ratio.push_back(static_cast<double>(response.makespan) /
                                    static_cast<double>(reference));
  }
}

}  // namespace

int run_ladder_large(const Options& options, Report& report) {
  const dagsched::Topology topology = dagsched::topo::by_name("hypercube:3");
  const dagsched::CommModel comm = dagsched::CommModel::paper_default();

  // Set-up: generate every graph and request, three times.
  Workload workload;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    workload = make_workload(options.seed);
    report.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
  }
  for (const LadderGraph& graph : workload.graphs) {
    report.notes.push_back(graph.label + ": " +
                           std::to_string(graph.graph.num_tasks()) +
                           " tasks, " +
                           std::to_string(graph.graph.num_edges()) + " edges");
  }

  // Measured passes: at least two, more while the run's time allows.
  std::vector<PassResult> passes;
  const std::int64_t start = now_ns();
  while (true) {
    passes.push_back(run_pass(workload, report, &report.latency_ms, nullptr));
    report.jobs_per_s.push_back(
        static_cast<double>(workload.jobs.size()) / passes.back().wall_s);
    const double elapsed = ms_between(start, now_ns()) / 1e3;
    if (passes.size() >= 2 &&
        elapsed + passes.back().wall_s > options.seconds) {
      break;
    }
  }
  for (const PassResult& pass : passes) {
    check_pass(workload, pass, topology, report);
  }
  // Every pass must agree with the first one job for job.
  for (std::size_t p = 1; p < passes.size(); ++p) {
    for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
      const auto& a = passes[0].responses[j];
      const auto& b = passes[p].responses[j];
      if (a.makespan != b.makespan || a.placement != b.placement) {
        report.fail(workload.jobs[j].request.id,
                    "pass " + std::to_string(p) + " differs from pass 0");
      }
    }
  }

  Tracer* tracer = options.trace ? &report.tracer : nullptr;
  report.traced = options.trace;
  if (options.trace) {
    // One traced pass; its wall time against the untraced passes' gives
    // the tracing overhead.
    const PassResult traced = run_pass(workload, report, nullptr, tracer);
    check_pass(workload, traced, topology, report);
    for (const PassResult& pass : passes) {
      report.sample("trace.untraced_ms").push_back(pass.wall_s * 1e3);
    }
    report.sample("trace.traced_ms").push_back(traced.wall_s * 1e3);

    // Layer probes.
    for (const LadderGraph& graph : workload.graphs) {
      SpanScope span(tracer, "graph_hash.canonicalize", graph.label);
      (void)service::canonicalize_instance(graph.graph, topology, comm);
    }
    double messages = 0.0;
    for (const LadderGraph& graph : workload.graphs) {
      if (graph.size.empty()) continue;
      {
        SpanScope span(tracer, "sched.heft_plan", graph.size);
        (void)dagsched::sched::heft_schedule(graph.graph, topology, comm);
      }
      dagsched::sched::HlfScheduler hlf;
      SpanScope span(tracer, "sim.hlf", graph.size);
      messages += dagsched::sim::simulate(graph.graph, topology, comm, hlf)
                      .num_messages;
    }
    report.counter("sim.messages", messages);
  }

  // Check: serve's makespan must equal a direct registry run's.  In the
  // traced run these runs are the sched.list_run probes.
  const auto& registry = dagsched::sched::PolicyRegistry::instance();
  for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
    const Job& job = workload.jobs[j];
    dagsched::sched::PolicyRunOutcome direct;
    {
      SpanScope span(tracer, "sched.list_run." + job.policy, job.request.id);
      direct = registry.make(job.policy)->run(job.request.graph, topology, comm);
    }
    if (direct.result.makespan != passes[0].responses[j].makespan) {
      report.fail(job.request.id,
                  "serve makespan " +
                      std::to_string(passes[0].responses[j].makespan) +
                      " != registry run " +
                      std::to_string(direct.result.makespan));
    }
  }
  report.peak_rss_kb = self_peak_rss_kb();
  return 0;
}

}  // namespace perfbench
