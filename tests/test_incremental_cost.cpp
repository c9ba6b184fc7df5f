// The incremental makespan oracle (core/incremental_cost.hpp) must be
// *exactly* equivalent to the full pinned replay: bit-identical makespans
// for every proposal, over randomized graphs, topologies and move
// sequences, including accepted moves (which rebuild the cached
// timeline), some of them priced from the per-baseline memo.  Plus the
// fallback boundaries: empty damage frontier (no-op move), frontier
// covering the whole graph (full-replay fallback) and single-processor
// topologies.  Also covers the ResumableEngine checkpoint/resume
// contract the oracle is built on.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/global_annealer.hpp"
#include "core/incremental_cost.hpp"
#include "graph/generators.hpp"
#include "sched/pinned.hpp"
#include "sim/engine.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"

namespace dagsched {
namespace {

using sa::CostOracleKind;
using sa::FullReplayOracle;
using sa::IncrementalReplay;

/// Ground truth: pinned replay through a fresh simulation.
Time simulated_makespan(const TaskGraph& graph, const Topology& topology,
                        const CommModel& comm,
                        const std::vector<ProcId>& mapping) {
  sched::PinnedScheduler policy(mapping);
  sim::SimOptions options;
  options.record_trace = false;
  return sim::simulate(graph, topology, comm, policy, options).makespan;
}

std::vector<ProcId> random_mapping(const TaskGraph& graph,
                                   const Topology& topology, Rng& rng) {
  std::vector<ProcId> mapping(static_cast<std::size_t>(graph.num_tasks()));
  for (ProcId& p : mapping) {
    p = static_cast<ProcId>(rng.uniform_index(
        static_cast<std::size_t>(topology.num_procs())));
  }
  return mapping;
}

/// Runs a random annealer-shaped move sequence against both oracles and
/// the ground truth, asserting bit-identity at every proposal.
void check_equivalence(const TaskGraph& graph, const Topology& topology,
                       const CommModel& comm, std::uint64_t seed,
                       int num_moves) {
  Rng rng(seed);
  std::vector<ProcId> current = random_mapping(graph, topology, rng);

  IncrementalReplay incremental(graph, topology, comm);
  FullReplayOracle full(graph, topology, comm);
  const Time base_inc = incremental.reset(current);
  const Time base_full = full.reset(current);
  ASSERT_EQ(base_inc, base_full);
  ASSERT_EQ(base_inc, simulated_makespan(graph, topology, comm, current));

  for (int move = 0; move < num_moves; ++move) {
    const auto task = rng.uniform_index(current.size());
    const ProcId old_proc = current[task];
    const ProcId new_proc = static_cast<ProcId>(rng.uniform_index(
        static_cast<std::size_t>(topology.num_procs())));
    current[task] = new_proc;  // may be a no-op move on purpose

    const Time inc =
        incremental.propose(current, static_cast<TaskId>(task));
    const Time ref = full.propose(current, static_cast<TaskId>(task));
    ASSERT_EQ(inc, ref) << "graph seed " << seed << ", move " << move
                        << ": task " << task << " " << old_proc << " -> "
                        << new_proc;

    // Accept improving moves and every third non-improving one, so the
    // sequence exercises both the rejected path (baseline untouched) and
    // the accepted path (timeline splice).
    if (inc < base_inc || move % 3 == 0) {
      if (move % 2 == 0 && new_proc != old_proc) {
        // Accept from the memo: price another move against the same
        // baseline first, then redraw this one (a memo hit, no
        // simulation); the splice must be as exact as after a priced
        // proposal, which the later proposals check.
        current[task] = old_proc;
        const auto other = rng.uniform_index(current.size());
        const ProcId other_old = current[other];
        current[other] = static_cast<ProcId>(rng.uniform_index(
            static_cast<std::size_t>(topology.num_procs())));
        ASSERT_EQ(incremental.propose(current, static_cast<TaskId>(other)),
                  full.propose(current, static_cast<TaskId>(other)));
        current[other] = other_old;
        current[task] = new_proc;
        const std::int64_t memo_hits = incremental.stats().memo_hits;
        ASSERT_EQ(incremental.propose(current, static_cast<TaskId>(task)),
                  inc);
        ASSERT_EQ(incremental.stats().memo_hits, memo_hits + 1);
        full.propose(current, static_cast<TaskId>(task));
      }
      incremental.accept();
      full.accept();
    } else {
      current[task] = old_proc;
    }
  }

  // The incremental path must actually have been exercised, not have
  // degenerated into all-full-replays.
  EXPECT_GT(incremental.stats().resumed_replays, 0)
      << "graph seed " << seed << " never resumed from a checkpoint";
}

TEST(IncrementalCost, EquivalentOnRandomGnpGraphs) {
  const CommModel comm = CommModel::paper_default();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    gen::GnpDagOptions options;
    options.num_tasks = 30 + static_cast<int>(seed) * 5;
    options.edge_probability = 0.08 + 0.01 * static_cast<double>(seed % 5);
    options.seed = seed;
    const TaskGraph graph = gen::gnp_dag(options);
    const Topology topology =
        seed % 2 == 0 ? topo::hypercube(3) : topo::ring(5);
    check_equivalence(graph, topology, comm, seed * 101, 60);
  }
}

TEST(IncrementalCost, EquivalentOnLayeredGraphsAndTopologies) {
  const CommModel comm = CommModel::paper_default();
  const Topology topologies[] = {topo::line(3), topo::star(5),
                                 topo::mesh(2, 3), topo::complete(4)};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    gen::LayeredDagOptions options;
    options.layers = 4 + static_cast<int>(seed % 4);
    options.seed = seed;
    const TaskGraph graph = gen::layered_dag(options);
    check_equivalence(graph, topologies[seed % 4], comm, seed * 7 + 3, 50);
  }
}

TEST(IncrementalCost, EquivalentWithCommDisabled) {
  gen::GnpDagOptions options;
  options.num_tasks = 40;
  options.seed = 17;
  const TaskGraph graph = gen::gnp_dag(options);
  check_equivalence(graph, topo::hypercube(2), CommModel::disabled(), 99,
                    50);
}

TEST(IncrementalCost, EquivalentOnStructuredFamilies) {
  const CommModel comm = CommModel::paper_default();
  const TaskGraph graphs[] = {
      gen::fork_join(3, 6, us(std::int64_t{5}), us(std::int64_t{20}),
                     us(std::int64_t{5}), us(std::int64_t{4})),
      gen::diamond(10, us(std::int64_t{5}), us(std::int64_t{15}),
                   us(std::int64_t{5}), us(std::int64_t{4})),
      gen::out_tree(4, 3, us(std::int64_t{15}), us(std::int64_t{4})),
      gen::in_tree(4, 3, us(std::int64_t{15}), us(std::int64_t{4})),
  };
  std::uint64_t seed = 5;
  for (const TaskGraph& graph : graphs) {
    check_equivalence(graph, topo::ring(4), comm, seed++, 40);
  }
}

// --- fallback boundaries ---------------------------------------------------

TEST(IncrementalCost, NoopMoveHitsTheCacheWithoutSimulating) {
  const TaskGraph graph = gen::diamond(8, us(std::int64_t{5}),
                                       us(std::int64_t{15}),
                                       us(std::int64_t{5}),
                                       us(std::int64_t{4}));
  const Topology topology = topo::ring(4);
  const CommModel comm = CommModel::paper_default();
  Rng rng(3);
  std::vector<ProcId> mapping = random_mapping(graph, topology, rng);

  IncrementalReplay oracle(graph, topology, comm);
  const Time base = oracle.reset(mapping);
  const auto replays_before =
      oracle.stats().full_replays + oracle.stats().resumed_replays;

  // Re-propose the baseline placement for some task: the damage frontier
  // is empty and the cached makespan is returned without any simulation.
  const TaskId task = 3;
  EXPECT_EQ(oracle.propose(mapping, task), base);
  EXPECT_EQ(oracle.stats().noop_moves, 1);
  EXPECT_EQ(oracle.stats().full_replays + oracle.stats().resumed_replays,
            replays_before);

  // Accepting a no-op keeps the baseline usable.
  oracle.accept();
  mapping[2] = static_cast<ProcId>((mapping[2] + 1) %
                                   static_cast<ProcId>(
                                       topology.num_procs()));
  EXPECT_EQ(oracle.propose(mapping, 2),
            simulated_makespan(graph, topology, comm, mapping));
}

TEST(IncrementalCost, SourceTaskMoveFallsBackToFullReplay) {
  // A source task is ready at epoch 0, so its damage frontier covers the
  // whole timeline; the oracle must take the full-replay fallback (and
  // still be exact).
  const TaskGraph graph = gen::out_tree(4, 3, us(std::int64_t{15}),
                                        us(std::int64_t{4}));
  const Topology topology = topo::ring(4);
  const CommModel comm = CommModel::paper_default();
  Rng rng(11);
  std::vector<ProcId> mapping = random_mapping(graph, topology, rng);

  IncrementalReplay oracle(graph, topology, comm);
  oracle.reset(mapping);
  const auto resumed_before = oracle.stats().resumed_replays;
  const auto full_before = oracle.stats().full_replays;

  // Task 0 is the root of the out-tree: the only source.
  mapping[0] = static_cast<ProcId>((mapping[0] + 1) %
                                   static_cast<ProcId>(
                                       topology.num_procs()));
  EXPECT_EQ(oracle.propose(mapping, 0),
            simulated_makespan(graph, topology, comm, mapping));
  EXPECT_EQ(oracle.stats().resumed_replays, resumed_before);
  EXPECT_EQ(oracle.stats().full_replays, full_before + 1);
}

TEST(IncrementalCost, SingleProcessorTopology) {
  const TaskGraph graph = gen::chain(6, us(std::int64_t{10}),
                                     us(std::int64_t{4}));
  const Topology topology = topo::ring(1);
  const CommModel comm = CommModel::paper_default();
  const std::vector<ProcId> mapping(
      static_cast<std::size_t>(graph.num_tasks()), 0);

  IncrementalReplay oracle(graph, topology, comm);
  const Time base = oracle.reset(mapping);
  EXPECT_EQ(base, simulated_makespan(graph, topology, comm, mapping));
  // Every "move" on one processor is a no-op.
  EXPECT_EQ(oracle.propose(mapping, 2), base);
  EXPECT_EQ(oracle.stats().noop_moves, 1);

  // anneal_global's single-processor special case under both oracles.
  for (const CostOracleKind kind :
       {CostOracleKind::kFullReplay, CostOracleKind::kIncremental}) {
    sa::GlobalAnnealOptions options;
    options.num_chains = 1;
    options.oracle = kind;
    const sa::GlobalAnnealResult result =
        sa::anneal_global(graph, topology, comm, options);
    EXPECT_EQ(result.makespan, base);
    EXPECT_EQ(result.simulations, 1);
  }
}

// --- anneal_global level equivalence ---------------------------------------

TEST(IncrementalCost, AnnealGlobalIsOracleIndependent) {
  // The whole annealing trajectory — best mapping, makespan, history,
  // simulation count — must not depend on the oracle choice.
  const CommModel comm = CommModel::paper_default();
  for (std::uint64_t seed : {1ull, 9ull, 42ull}) {
    gen::GnpDagOptions graph_options;
    graph_options.num_tasks = 35;
    graph_options.seed = seed;
    const TaskGraph graph = gen::gnp_dag(graph_options);
    const Topology topology = topo::hypercube(2);

    sa::GlobalAnnealOptions options;
    options.cooling.max_steps = 12;
    options.seed = seed;
    options.num_chains = 2;

    options.oracle = CostOracleKind::kFullReplay;
    const sa::GlobalAnnealResult full =
        sa::anneal_global(graph, topology, comm, options);
    options.oracle = CostOracleKind::kIncremental;
    const sa::GlobalAnnealResult incremental =
        sa::anneal_global(graph, topology, comm, options);

    EXPECT_EQ(full.makespan, incremental.makespan);
    EXPECT_EQ(full.mapping, incremental.mapping);
    EXPECT_EQ(full.initial_makespan, incremental.initial_makespan);
    EXPECT_EQ(full.simulations, incremental.simulations);
    EXPECT_EQ(full.history, incremental.history);
    EXPECT_EQ(full.chain_makespans, incremental.chain_makespans);
  }
}

TEST(IncrementalCost, WallBudgetStopsEarlyAndMarksTimedOut) {
  const TaskGraph graph = gen::diamond(10, us(std::int64_t{5}),
                                       us(std::int64_t{18}),
                                       us(std::int64_t{5}),
                                       us(std::int64_t{6}));
  sa::GlobalAnnealOptions options;
  options.num_chains = 1;
  options.wall_budget_seconds = 1e-9;  // exceeded before the first step
  const sa::GlobalAnnealResult result = sa::anneal_global(
      graph, topo::ring(4), CommModel::paper_default(), options);
  EXPECT_TRUE(result.timed_out);
  // Only the initial replay ran; the best mapping is the seed placement.
  EXPECT_EQ(result.simulations, 1);
  EXPECT_EQ(result.makespan, result.initial_makespan);
}

// --- the engine contract the oracle rests on -------------------------------

/// Observer capturing one checkpoint per epoch.
class CaptureAll final : public sim::EpochObserver {
 public:
  void on_epoch(const sim::EpochView& epoch) override {
    checkpoints.push_back(epoch.checkpoint());
  }
  std::vector<sim::SimCheckpoint> checkpoints;
};

TEST(ResumableEngine, ResumeFromAnyEpochReproducesTheRun) {
  gen::GnpDagOptions options;
  options.num_tasks = 30;
  options.seed = 23;
  const TaskGraph graph = gen::gnp_dag(options);
  const Topology topology = topo::hypercube(2);
  const CommModel comm = CommModel::paper_default();
  Rng rng(4);
  const std::vector<ProcId> mapping = random_mapping(graph, topology, rng);

  sched::PinnedScheduler policy(mapping);
  sim::SimOptions sim_options;
  sim_options.record_trace = false;
  sim::ResumableEngine engine(graph, topology, comm, policy, sim_options);

  CaptureAll capture;
  const sim::SimResult reference = engine.run(&capture);
  ASSERT_GT(capture.checkpoints.size(), 2u);

  for (const sim::SimCheckpoint& cp : capture.checkpoints) {
    const sim::SimResult resumed = engine.resume(cp);
    EXPECT_EQ(resumed.makespan, reference.makespan)
        << "resume from epoch " << cp.epoch_index();
    EXPECT_EQ(resumed.placement, reference.placement);
    EXPECT_EQ(resumed.num_epochs, reference.num_epochs);
    EXPECT_EQ(resumed.num_messages, reference.num_messages);
    EXPECT_EQ(resumed.proc_busy, reference.proc_busy);
  }
}

TEST(ResumableEngine, RunMatchesExecutionEngine) {
  const TaskGraph graph = gen::fork_join(3, 5, us(std::int64_t{5}),
                                         us(std::int64_t{20}),
                                         us(std::int64_t{5}),
                                         us(std::int64_t{4}));
  const Topology topology = topo::ring(4);
  const CommModel comm = CommModel::paper_default();
  Rng rng(8);
  const std::vector<ProcId> mapping = random_mapping(graph, topology, rng);

  sched::PinnedScheduler policy(mapping);
  sim::SimOptions sim_options;
  sim_options.record_trace = false;
  sim::ResumableEngine engine(graph, topology, comm, policy, sim_options);
  const sim::SimResult a = engine.run();
  const sim::SimResult b =
      sim::simulate(graph, topology, comm, policy, sim_options);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.num_epochs, b.num_epochs);
}

}  // namespace
}  // namespace dagsched
