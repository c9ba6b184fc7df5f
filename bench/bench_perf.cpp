// Throughput microbenchmarks (google-benchmark): the hot paths of the
// library — level computation, packet cost evaluation, annealing sweeps,
// full simulated executions, and the list policies, the HEFT planner and
// the plan cache's canonical labeling on a workflow-scale ladder (1k-16k
// tasks).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/annealer.hpp"
#include "core/cost.hpp"
#include "core/global_annealer.hpp"
#include "core/incremental_cost.hpp"
#include "core/packet.hpp"
#include "core/sa_scheduler.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "sched/heft.hpp"
#include "sched/hlf.hpp"
#include "sched/registry.hpp"
#include "service/api.hpp"
#include "service/graph_hash.hpp"
#include "sim/engine.hpp"
#include "topology/builders.hpp"
#include "util/json.hpp"
#include "workloads/registry.hpp"

namespace {

using namespace dagsched;

void BM_TaskLevels(benchmark::State& state) {
  gen::GnpDagOptions options;
  options.num_tasks = static_cast<int>(state.range(0));
  options.edge_probability = 0.05;
  options.seed = 42;
  const TaskGraph graph = gen::gnp_dag(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(task_levels(graph));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TaskLevels)->Arg(100)->Arg(1000)->Arg(5000);

void BM_CriticalPath(benchmark::State& state) {
  gen::GnpDagOptions options;
  options.num_tasks = static_cast<int>(state.range(0));
  options.edge_probability = 0.05;
  options.seed = 42;
  const TaskGraph graph = gen::gnp_dag(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(critical_path(graph));
  }
}
BENCHMARK(BM_CriticalPath)->Arg(100)->Arg(1000);

/// Builds a synthetic annealing packet of `n` candidate tasks for 8
/// processors with random levels and inputs.
sa::AnnealingPacket synthetic_packet(int n, const Topology& topology) {
  sa::AnnealingPacket packet;
  Rng rng(7);
  for (ProcId p = 0; p < topology.num_procs(); ++p) packet.procs.push_back(p);
  for (int i = 0; i < n; ++i) {
    sa::PacketTask task;
    task.task = i;
    task.level = us(rng.uniform_int(10, 500));
    const int inputs = static_cast<int>(rng.uniform_int(0, 3));
    for (int j = 0; j < inputs; ++j) {
      const Time weight = us(rng.uniform_int(1, 16));
      task.inputs.push_back(sa::PacketTask::Input{
          static_cast<ProcId>(rng.uniform_index(
              static_cast<std::size_t>(topology.num_procs()))),
          weight});
      task.total_input_weight += weight;
    }
    packet.tasks.push_back(std::move(task));
  }
  return packet;
}

void BM_PacketCostEvaluate(benchmark::State& state) {
  const Topology topology = topo::hypercube(3);
  const CommModel comm = CommModel::paper_default();
  const sa::AnnealingPacket packet =
      synthetic_packet(static_cast<int>(state.range(0)), topology);
  const sa::PacketCostModel cost(packet, topology, comm, 0.5, 0.5);
  Rng rng(1);
  const sa::Mapping mapping =
      sa::Mapping::initial(packet, sa::InitKind::Random, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cost.evaluate(mapping));
  }
}
BENCHMARK(BM_PacketCostEvaluate)->Arg(8)->Arg(32)->Arg(128);

void BM_MoveDelta(benchmark::State& state) {
  // The O(1) fast path in isolation: propose + price a move, never accept.
  const Topology topology = topo::hypercube(3);
  const CommModel comm = CommModel::paper_default();
  const sa::AnnealingPacket packet =
      synthetic_packet(static_cast<int>(state.range(0)), topology);
  const sa::PacketCostModel cost(packet, topology, comm, 0.5, 0.5);
  Rng rng(3);
  const sa::Mapping mapping =
      sa::Mapping::initial(packet, sa::InitKind::Random, rng);
  sa::Move move;
  for (auto _ : state) {
    mapping.propose(packet, rng, move);
    benchmark::DoNotOptimize(cost.move_delta(mapping, move));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MoveDelta)->Arg(8)->Arg(32)->Arg(128);

void BM_AnnealPacket(benchmark::State& state) {
  const Topology topology = topo::hypercube(3);
  const CommModel comm = CommModel::paper_default();
  const sa::AnnealingPacket packet =
      synthetic_packet(static_cast<int>(state.range(0)), topology);
  const sa::PacketCostModel cost(packet, topology, comm, 0.5, 0.5);
  sa::AnnealOptions options;
  std::int64_t iterations = 0;
  for (auto _ : state) {
    Rng rng(99);
    const sa::AnnealResult result =
        sa::anneal_packet(packet, cost, options, rng);
    iterations += result.iterations;
    benchmark::DoNotOptimize(result.best_cost.total);
  }
  state.SetItemsProcessed(iterations);  // proposed moves per second
}
BENCHMARK(BM_AnnealPacket)->Arg(8)->Arg(32)->Arg(128);

void BM_SimulateHlf(benchmark::State& state) {
  const workloads::Workload w = workloads::by_name("GJ");
  const Topology topology = topo::hypercube(3);
  const CommModel comm = CommModel::paper_default();
  sim::SimOptions options;
  options.record_trace = false;
  for (auto _ : state) {
    sched::HlfScheduler hlf;
    benchmark::DoNotOptimize(
        sim::simulate(w.graph, topology, comm, hlf, options).makespan);
  }
  state.SetItemsProcessed(state.iterations() * w.graph.num_tasks());
}
BENCHMARK(BM_SimulateHlf);

void BM_SimulateSa(benchmark::State& state) {
  const workloads::Workload w = workloads::by_name("GJ");
  const Topology topology = topo::hypercube(3);
  const CommModel comm = CommModel::paper_default();
  sim::SimOptions options;
  options.record_trace = false;
  for (auto _ : state) {
    sa::SaScheduler scheduler;
    benchmark::DoNotOptimize(
        sim::simulate(w.graph, topology, comm, scheduler, options).makespan);
  }
  state.SetItemsProcessed(state.iterations() * w.graph.num_tasks());
}
BENCHMARK(BM_SimulateSa);

void BM_GlobalOracle(benchmark::State& state, sa::CostOracleKind kind) {
  // Proposed-moves/s through the global annealer's cost-oracle seam:
  // one complete single-chain anneal_global trajectory (HLF seed,
  // default cooling and patience) on a random DAG of range(0) tasks over
  // 8 processors, per iteration.  The full/incremental runs share the
  // seed, so they price the exact same move stream (and the equivalence
  // contract makes every makespan — and thus the trajectory — identical);
  // items_per_second compares the oracles head to head.
  gen::GnpDagOptions options;
  options.num_tasks = static_cast<int>(state.range(0));
  options.edge_probability = 6.0 / static_cast<double>(options.num_tasks);
  options.seed = 42;
  const TaskGraph graph = gen::gnp_dag(options);
  const Topology topology = topo::hypercube(3);
  const CommModel comm = CommModel::paper_default();

  sa::GlobalAnnealOptions anneal;
  anneal.num_chains = 1;
  anneal.seed = 7;
  anneal.oracle = kind;

  std::int64_t proposals = 0;
  for (auto _ : state) {
    const sa::GlobalAnnealResult result =
        sa::anneal_global(graph, topology, comm, anneal);
    proposals += result.simulations;
    benchmark::DoNotOptimize(result.makespan);
  }
  state.SetItemsProcessed(proposals);  // proposed moves per second
}
BENCHMARK_CAPTURE(BM_GlobalOracle, full, sa::CostOracleKind::kFullReplay)
    ->Arg(128)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_GlobalOracle, incremental,
                  sa::CostOracleKind::kIncremental)
    ->Arg(128)
    ->UseRealTime();

void BM_AnnealGlobal(benchmark::State& state) {
  // Whole-schedule annealing; range(0) is the chain count (0 = auto).
  const workloads::Workload w = workloads::by_name("NE");
  const Topology topology = topo::hypercube(3);
  const CommModel comm = CommModel::paper_default();
  sa::GlobalAnnealOptions options;
  options.cooling.max_steps = 10;
  options.num_chains = static_cast<int>(state.range(0));
  std::int64_t simulations = 0;
  for (auto _ : state) {
    const sa::GlobalAnnealResult result =
        sa::anneal_global(w.graph, topology, comm, options);
    simulations += result.simulations;
    benchmark::DoNotOptimize(result.makespan);
  }
  state.SetItemsProcessed(simulations);  // cost-oracle replays per second
}
BENCHMARK(BM_AnnealGlobal)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// The ladder rung of `n` tasks: gnp with ~8 edges per task (edge
/// probability 8/(n-1)), generated once per size and process.
const TaskGraph& ladder_graph(int n) {
  static std::map<int, TaskGraph> graphs;
  auto it = graphs.find(n);
  if (it == graphs.end()) {
    gen::GnpDagOptions options;
    options.num_tasks = n;
    options.edge_probability = 8.0 / static_cast<double>(n - 1);
    options.seed = 12;
    it = graphs.emplace(n, gen::gnp_dag(options)).first;
  }
  return it->second;
}

/// One registry policy run (plan, if any, plus simulation) on a ladder
/// rung on hypercube:3; tasks scheduled per second.
void BM_ListPolicy(benchmark::State& state, const std::string& policy) {
  const TaskGraph& graph = ladder_graph(static_cast<int>(state.range(0)));
  const Topology topology = topo::hypercube(3);
  const CommModel comm = CommModel::paper_default();
  const auto& registry = sched::PolicyRegistry::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        registry.make(policy)->run(graph, topology, comm).result.makespan);
  }
  state.SetItemsProcessed(state.iterations() * graph.num_tasks());
}
void ladder_rungs(benchmark::internal::Benchmark* b) {
  b->Arg(1000)->Arg(4000)->Arg(16000)->Unit(benchmark::kMillisecond);
}
/// The ladder plus the paper-scale 128-task rung, where a per-run ready
/// index has the least to amortize its heap pushes over.
void policy_rungs(benchmark::internal::Benchmark* b) {
  b->Arg(128);
  ladder_rungs(b);
}
BENCHMARK_CAPTURE(BM_ListPolicy, hlf, "hlf")->Apply(policy_rungs);
BENCHMARK_CAPTURE(BM_ListPolicy, list-hlf, "list-hlf")->Apply(policy_rungs);
BENCHMARK_CAPTURE(BM_ListPolicy, heft, "heft")->Apply(policy_rungs);
BENCHMARK_CAPTURE(BM_ListPolicy, peft, "peft")->Apply(policy_rungs);
BENCHMARK_CAPTURE(BM_ListPolicy, dagprio, "dagprio")->Apply(policy_rungs);
BENCHMARK_CAPTURE(BM_ListPolicy, etf, "etf")->Apply(policy_rungs);

/// The HEFT offline plan alone on a ladder rung; tasks placed per second.
void BM_HeftPlan(benchmark::State& state) {
  const TaskGraph& graph = ladder_graph(static_cast<int>(state.range(0)));
  const Topology topology = topo::hypercube(3);
  const CommModel comm = CommModel::paper_default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::heft_schedule(graph, topology, comm).makespan);
  }
  state.SetItemsProcessed(state.iterations() * graph.num_tasks());
}
BENCHMARK(BM_HeftPlan)->Apply(ladder_rungs);

/// The plan cache's canonical labeling of one instance on hypercube:3;
/// tasks labeled per second.  `fork_join` rows are fork_join(8, width) —
/// symmetric stages where individualization does most of the work — and
/// `gnp` rows are the ladder rungs.
void BM_Canonicalize(benchmark::State& state, bool fork_join) {
  const int arg = static_cast<int>(state.range(0));
  const TaskGraph graph =
      fork_join ? gen::fork_join(8, arg, us(std::int64_t{10}),
                                 us(std::int64_t{20}), us(std::int64_t{10}),
                                 us(std::int64_t{4}))
                : ladder_graph(arg);
  const Topology topology = topo::hypercube(3);
  const CommModel comm = CommModel::paper_default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        service::canonicalize_instance(graph, topology, comm).hash);
  }
  state.SetItemsProcessed(state.iterations() * graph.num_tasks());
}
BENCHMARK_CAPTURE(BM_Canonicalize, fork_join, true)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Canonicalize, gnp, false)->Apply(ladder_rungs);

/// schedd's per-request reader work: parse_json + request_from_json of
/// one gnp-style wire line (~4 edges per task, the shape of the
/// schedd_stream benchmark's requests); tasks and bytes read per second.
void BM_ParseRequest(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  gen::GnpDagOptions options;
  options.num_tasks = n;
  options.edge_probability = 8.0 / static_cast<double>(n - 1);
  options.seed = 15;
  service::ScheduleRequest request;
  request.id = "r1";
  request.policy = "heft";
  request.graph = gen::gnp_dag(options);
  const std::string line = service::to_json(request);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        service::request_from_json(parse_json(line)).graph.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(line.size()));
}
BENCHMARK(BM_ParseRequest)->Arg(64)->Arg(512);

}  // namespace
