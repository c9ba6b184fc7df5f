#pragma once

// Global (whole-schedule) simulated annealing — the natural extension of
// the paper's staged scheme, provided as an ablation.
//
// Instead of annealing one packet of ready tasks at a time with the eq. 6
// *estimate*, the global annealer optimizes a complete static mapping
// m : T -> P, using the discrete-event simulator itself (via a pinned
// replay) as the exact cost oracle: the objective is the simulated
// makespan, precedence constraints and all.  This is far more expensive —
// every proposed move costs a full simulation — but removes both of the
// staged scheme's blind spots (per-packet myopia and the analytic-estimate
// gap).  bench_global quantifies the trade on the paper's programs.
//
// The annealer runs `num_chains` independent chains, each with its own
// deterministic Rng stream (Rng::stream(seed, chain)) and its own
// preallocated replay workspace, on std::threads; the best chain's mapping
// wins (ties break toward the lowest chain index, so results stay
// deterministic).  Chain 0's random stream is bit-identical to the
// historical single-chain annealer, so `num_chains = 1` reproduces the
// pre-multi-chain results exactly.

#include <cstdint>
#include <vector>

#include "core/cooling.hpp"
#include "core/incremental_cost.hpp"
#include "graph/taskgraph.hpp"
#include "topology/comm_model.hpp"
#include "topology/topology.hpp"
#include "util/time.hpp"

namespace dagsched::sa {

/// Configuration of the whole-schedule annealer.
struct GlobalAnnealOptions {
  /// Annealing schedule.  The temperature acts on makespan differences in
  /// *microseconds* (a move that worsens the makespan by d us survives
  /// with probability exp(-d / Temp)); a cool start (a few us) works best
  /// because the HLF seed is already decent.  max_steps bounds the number
  /// of temperature steps per chain.
  CoolingSchedule cooling{CoolingKind::Geometric, /*t0=*/4.0,
                          /*alpha=*/0.85, /*t_min=*/1e-3,
                          /*max_steps=*/60};

  /// Proposed reassignments (single-task moves) per temperature step;
  /// 0 selects max(8, num_tasks).  Every proposal costs one full pinned
  /// replay, so the total simulation budget per chain is roughly
  /// max_steps * moves_per_temperature.
  int moves_per_temperature = 0;

  /// Early stop: a chain ends when its best makespan did not improve for
  /// this many consecutive temperature steps.
  int patience = 20;

  /// Top-level seed.  Chain c draws from Rng::stream(seed, c), so the
  /// whole run is deterministic for a fixed (seed, num_chains).
  std::uint64_t seed = 1;

  /// Start from the HLF placement instead of a random one.
  bool seed_with_hlf = true;

  /// Independent annealing chains run on std::threads; 0 selects
  /// hardware_concurrency capped at 8 — convenient interactively, but
  /// results then depend on the host, so reproducible workloads (sweeps,
  /// tests) must pin an explicit positive count.  Chain semantics:
  /// chains share nothing but the start mapping; chain 0 is
  /// bit-compatible with the historical single-chain annealer for the
  /// same seed (golden-tested), extra chains explore independently, and
  /// the best chain wins with ties broken toward the lowest index.
  int num_chains = 0;

  /// Makespan oracle pricing the proposed moves.  Both concrete oracles
  /// return bit-identical makespans (locked by
  /// tests/test_incremental_cost.cpp), so this knob never changes results
  /// — only how much of the event timeline is re-simulated per proposal.
  /// The default kAuto consults the scheduler registry
  /// (resolve_cost_oracle_kind): the incremental oracle is selected iff
  /// the replay policy's `pure_decision` capability flag holds, i.e. its
  /// epoch decision is a pure function of (ready, idle, mapping, levels)
  /// — the precondition for sound checkpoint resume.  Each chain owns its
  /// own oracle instance, preserving the multi-chain determinism
  /// contract.
  CostOracleKind oracle = CostOracleKind::kAuto;

  /// Per-chain wall-clock budget in seconds; 0 disables the budget.  A
  /// chain checks the budget between temperature steps and stops early
  /// (keeping its best-so-far mapping) once it is exceeded, setting
  /// GlobalAnnealResult::timed_out.  NOTE: a nonzero budget trades the
  /// determinism guarantee for bounded latency — results then depend on
  /// host speed.  Used by the sweep runner's per-instance budgets.
  double wall_budget_seconds = 0.0;

  /// Optional fault injection (must outlive the call): moves are then
  /// priced against the faulty environment, so the annealer optimizes
  /// the makespan *under* the injected crash/link timelines.  Active
  /// faults force the full-replay oracle (see resolve_cost_oracle_kind);
  /// the HLF seed placement is computed under the same faults.
  const sim::FaultSpec* faults = nullptr;
};

struct GlobalAnnealResult {
  std::vector<ProcId> mapping;   ///< best complete placement found
  Time makespan = 0;             ///< simulated makespan of `mapping`
  Time initial_makespan = 0;     ///< chain 0's starting makespan
  int simulations = 0;           ///< cost-oracle invocations, all chains
  std::vector<Time> history;     ///< winning chain: best-so-far per step
  int chains = 1;                ///< chains actually run
  std::vector<Time> chain_makespans;  ///< best makespan of each chain
  /// How the oracles priced the proposals, summed over all chains.
  CostOracleStats oracle_stats;
  /// True when any chain stopped early on its wall-clock budget.
  bool timed_out = false;
};

/// Anneals a complete task-to-processor mapping against the simulated
/// makespan.  Deterministic for a given seed and chain count — chains have
/// fixed seeds and ties break toward the lowest chain index; note that
/// num_chains = 0 resolves to the machine's hardware concurrency, so
/// cross-machine reproducibility requires an explicit chain count.  The
/// temperature acts on the makespan difference measured in microseconds.
///
/// @param graph     the taskgraph to place; must be a non-empty DAG.
/// @param topology  the target machine; outlives the call.
/// @param comm      communication model used by the replay cost oracle.
/// @param options   schedule, budget and chain parameters (see above).
/// @return the best mapping over all chains together with its *exact*
///         simulated makespan — replaying result.mapping through
///         sched::PinnedScheduler reproduces result.makespan, a property
///         the sweep runner and tests rely on.
GlobalAnnealResult anneal_global(const TaskGraph& graph,
                                 const Topology& topology,
                                 const CommModel& comm,
                                 const GlobalAnnealOptions& options = {});

}  // namespace dagsched::sa
