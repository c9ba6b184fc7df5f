#include "core/global_annealer.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/boltzmann.hpp"
#include "core/incremental_cost.hpp"
#include "sched/hlf.hpp"
#include "sim/engine.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace dagsched::sa {

namespace {

/// One independent annealing chain.  Chain 0 consumes Rng(options.seed)
/// exactly as the historical single-chain annealer did; other chains use
/// decorrelated streams of the same seed.  `hlf_placement` is the shared
/// deterministic seed mapping (ignored when seed_with_hlf is false).
///
/// Each chain owns its cost oracle (options.oracle), the PR 3 seam that
/// replaced the PR 1 ReplayWorkspace: both oracle kinds return makespans
/// bit-identical to a full pinned replay, and the Rng consumption below
/// is oracle-independent, so chain 0 stays bit-compatible with the seed
/// implementation under either oracle.
GlobalAnnealResult anneal_chain(const TaskGraph& graph,
                                const Topology& topology,
                                const CommModel& comm,
                                const GlobalAnnealOptions& options,
                                int chain_index,
                                const std::vector<ProcId>& hlf_placement) {
  Rng rng = Rng::stream(options.seed,
                        static_cast<std::uint64_t>(chain_index));
  const std::unique_ptr<CostOracle> oracle =
      make_cost_oracle(options.oracle, graph, topology, comm,
                       options.faults);
  // LINT-ALLOW(wall-clock): the wall budget is an explicit caller opt-in; results stay seeded, only *when we stop* is wall-dependent and reported via timed_out
  const auto chain_start = std::chrono::steady_clock::now();
  GlobalAnnealResult result;

  // Initial mapping: HLF placement (good start) or uniform random.
  std::vector<ProcId> current;
  if (options.seed_with_hlf) {
    current = hlf_placement;
  } else {
    current.resize(static_cast<std::size_t>(graph.num_tasks()));
    for (ProcId& p : current) {
      p = static_cast<ProcId>(
          rng.uniform_index(static_cast<std::size_t>(topology.num_procs())));
    }
  }

  Time current_makespan = oracle->reset(current);
  result.simulations = 1;
  result.initial_makespan = current_makespan;
  result.mapping = current;
  result.makespan = current_makespan;

  const int moves_per_temp =
      options.moves_per_temperature > 0
          ? options.moves_per_temperature
          : std::max(8, graph.num_tasks());
  result.history.reserve(static_cast<std::size_t>(options.cooling.max_steps));

  int stale_steps = 0;
  for (int step = 0; step < options.cooling.max_steps; ++step) {
    if (options.wall_budget_seconds > 0) {
      const std::chrono::duration<double> elapsed =
          // LINT-ALLOW(wall-clock): wall-budget cutoff check (see chain_start above)
          std::chrono::steady_clock::now() - chain_start;
      if (elapsed.count() > options.wall_budget_seconds) {
        result.timed_out = true;
        break;
      }
    }
    const double temp = options.cooling.temperature(step);
    const Time best_before = result.makespan;

    for (int move = 0; move < moves_per_temp; ++move) {
      // Move: reassign a random task to a random different processor.
      const auto task = rng.uniform_index(current.size());
      const ProcId old_proc = current[task];
      ProcId new_proc = old_proc;
      while (new_proc == old_proc) {
        new_proc = static_cast<ProcId>(rng.uniform_index(
            static_cast<std::size_t>(topology.num_procs())));
      }
      const double accept_draw = rng.uniform01();

      current[task] = new_proc;
      const Time makespan =
          oracle->propose(current, static_cast<TaskId>(task));
      ++result.simulations;
      const double delta = to_us(makespan - current_makespan);
      if (accept_draw < boltzmann_acceptance(delta, temp)) {
        oracle->accept();
        current_makespan = makespan;
        if (makespan < result.makespan) {
          result.makespan = makespan;
          result.mapping = current;
        }
      } else {
        current[task] = old_proc;
      }
    }

    result.history.push_back(result.makespan);
    if (result.makespan >= best_before) {
      if (++stale_steps >= options.patience) break;
    } else {
      stale_steps = 0;
    }
  }
  result.oracle_stats = oracle->stats();
  return result;
}

int resolve_num_chains(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 8u));
}

}  // namespace

GlobalAnnealResult anneal_global(const TaskGraph& graph,
                                 const Topology& topology,
                                 const CommModel& comm,
                                 const GlobalAnnealOptions& options) {
  graph.validate();
  options.cooling.validate();
  require(options.patience >= 1, "anneal_global: bad patience");
  require(options.num_chains >= 0, "anneal_global: negative num_chains");

  if (topology.num_procs() == 1) {
    // Nothing to move; replay the only possible placement once.
    GlobalAnnealResult result;
    result.mapping.assign(static_cast<std::size_t>(graph.num_tasks()), 0);
    const std::unique_ptr<CostOracle> oracle =
        make_cost_oracle(options.oracle, graph, topology, comm,
                         options.faults);
    result.makespan = oracle->reset(result.mapping);
    result.initial_makespan = result.makespan;
    result.simulations = 1;
    result.history.push_back(result.makespan);
    result.chain_makespans.push_back(result.makespan);
    result.oracle_stats = oracle->stats();
    return result;
  }

  // The HLF seed placement is deterministic — compute it once and share it
  // across chains instead of re-simulating HLF per chain.
  std::vector<ProcId> hlf_placement;
  if (options.seed_with_hlf) {
    sched::HlfScheduler hlf;
    sim::SimOptions sim_options;
    sim_options.record_trace = false;
    sim_options.faults = options.faults;
    hlf_placement =
        sim::simulate(graph, topology, comm, hlf, sim_options).placement;
    // Under fault injection the seed run itself can fail (retry
    // exhaustion), leaving unplaced tasks; park those on proc 0 so every
    // chain still starts from a complete mapping.
    for (ProcId& p : hlf_placement) {
      if (p == kInvalidProc) p = 0;
    }
  }

  const int num_chains = resolve_num_chains(options.num_chains);

  std::vector<GlobalAnnealResult> chains(
      static_cast<std::size_t>(num_chains));
  if (num_chains == 1) {
    chains[0] = anneal_chain(graph, topology, comm, options, 0,
                             hlf_placement);
  } else {
    // Chains 1..N-1 on worker threads, chain 0 on the calling thread.
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(num_chains - 1));
    for (int c = 1; c < num_chains; ++c) {
      workers.emplace_back([&, c] {
        chains[static_cast<std::size_t>(c)] =
            anneal_chain(graph, topology, comm, options, c, hlf_placement);
      });
    }
    try {
      chains[0] = anneal_chain(graph, topology, comm, options, 0,
                               hlf_placement);
    } catch (...) {
      // Destroying a joinable std::thread terminates the process; drain
      // the workers before letting the exception propagate.
      for (std::thread& worker : workers) worker.join();
      throw;
    }
    for (std::thread& worker : workers) worker.join();
  }

  // Best chain wins; ties break toward the lowest chain index so the
  // result is independent of thread scheduling.
  std::size_t best = 0;
  int total_simulations = 0;
  bool timed_out = false;
  CostOracleStats oracle_stats;
  std::vector<Time> chain_makespans;
  chain_makespans.reserve(chains.size());
  for (std::size_t c = 0; c < chains.size(); ++c) {
    total_simulations += chains[c].simulations;
    timed_out = timed_out || chains[c].timed_out;
    oracle_stats += chains[c].oracle_stats;
    chain_makespans.push_back(chains[c].makespan);
    if (chains[c].makespan < chains[best].makespan) best = c;
  }
  const Time chain0_initial = chains[0].initial_makespan;

  GlobalAnnealResult result = std::move(chains[best]);
  result.initial_makespan = chain0_initial;
  result.simulations = total_simulations;
  result.chains = num_chains;
  result.chain_makespans = std::move(chain_makespans);
  result.oracle_stats = oracle_stats;
  result.timed_out = timed_out;
  return result;
}

}  // namespace dagsched::sa
