#pragma once

// Cost oracles for the global (whole-schedule) annealer.
//
// anneal_global prices every proposed single-task move with the *exact*
// simulated makespan of the complete mapping (pinned replay).  The full
// replay re-simulates the whole event timeline per proposal; the
// incremental oracle exploits that a single-task reassignment cannot
// change anything before the moved task first becomes schedulable:
//
//   The pinned policy reads mapping[t] only for tasks in the epoch's
//   ready set, so the event timeline up to the first assignment epoch at
//   which `t` is ready is bit-identical for any two mappings differing
//   only at `t`.  (Messages touching `t` are launched when `t` or its
//   successors are assigned — all at or after that epoch.)
//
// IncrementalReplay sharpens that bound further with a *divergence
// walk*: it caches every epoch's decision inputs and outputs (ready
// tasks in priority order, idle processors, assignments) from the last
// accepted timeline and, for a proposed move, re-evaluates just the
// pinned decision rule — no event simulation — from the moved task's
// first-ready epoch forward until a decision actually changes.  A ready
// task waiting for a busy processor does not damage the timeline until
// the epoch that would place it, so the divergence epoch is usually much
// later than the first-ready epoch (it is at most the task's assignment
// epoch).  The oracle then resumes the simulation from the latest cached
// state checkpoint (sim::SimCheckpoint) at or before the divergence
// epoch.  When the damage frontier covers (nearly) the whole timeline it
// falls back to a plain full replay.  Because the annealing baseline is
// frozen across long rejection stretches and there are only
// num_tasks x (num_procs - 1) distinct single-task moves, proposals are
// additionally memoized per baseline (exact cache, invalidated on
// accept).  Equivalence with the full replay is exact — bit-identical
// makespans — and locked by tests/test_incremental_cost.cpp.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/taskgraph.hpp"
#include "sched/pinned.hpp"
#include "sim/engine.hpp"
#include "topology/comm_model.hpp"
#include "topology/topology.hpp"
#include "util/time.hpp"

namespace dagsched::sa {

/// Which makespan oracle anneal_global uses to price proposed moves.
enum class CostOracleKind {
  kFullReplay,    ///< one full pinned replay per proposal (reference)
  kIncremental,   ///< damaged-suffix resume with full-replay fallback
  kAuto,          ///< resolve by the replay policy's capability traits
};

std::string to_string(CostOracleKind kind);
CostOracleKind cost_oracle_kind_from_string(const std::string& name);

/// Resolves kAuto to a concrete oracle via the scheduler registry: the
/// annealer prices moves by replaying mappings through the "pinned"
/// policy, and checkpoint-resume pricing is sound only when that policy's
/// epoch decision is a pure function of (ready, idle, mapping, levels) —
/// the `pure_decision` capability flag (sched/registry.hpp).  When the
/// flag holds the incremental oracle is chosen, otherwise the full
/// replay.  Concrete kinds pass through unchanged, so an explicit choice
/// always wins.
CostOracleKind resolve_cost_oracle_kind(CostOracleKind kind);

/// Fault-aware overload: active fault injection forces kAuto to the full
/// replay.  Checkpoint-resume pricing assumes a move's damage is local to
/// the epochs it changes, but fault timelines (crash windows, retry
/// timers) interleave with *absolute simulation time* — a divergence
/// anywhere shifts which events every later fault window hits, so resumed
/// suffixes are no longer bit-identical to full replays.  An explicit
/// kIncremental with active faults is rejected by make_cost_oracle.
CostOracleKind resolve_cost_oracle_kind(CostOracleKind kind,
                                        bool faults_active);

/// Counters describing how an oracle priced its proposals.  All counters
/// are cumulative since construction; aggregate across chains with +=.
struct CostOracleStats {
  std::int64_t proposals = 0;        ///< propose() calls
  std::int64_t noop_moves = 0;       ///< empty damage frontier, cache hit
  std::int64_t memo_hits = 0;        ///< repeated move, memoized makespan
  std::int64_t full_replays = 0;     ///< from-scratch simulations (incl. reset)
  std::int64_t resumed_replays = 0;  ///< checkpoint resumes
  std::int64_t accepts = 0;          ///< accept() calls
  std::int64_t replayed_epochs = 0;  ///< epochs actually re-simulated
  std::int64_t baseline_epochs = 0;  ///< epochs full replays would have cost

  CostOracleStats& operator+=(const CostOracleStats& other);
};

/// The exact-makespan oracle seam used by anneal_global.  The protocol is
/// reset (establish a baseline mapping) followed by any number of
/// propose / accept rounds:
///
///   oracle.reset(m0);                 // m0 becomes the baseline
///   m1 = m0 with task t moved;
///   cost = oracle.propose(m1, t);     // exact makespan of m1
///   oracle.accept();                  // optional: m1 becomes the baseline
///
/// propose() must be called with a mapping that differs from the current
/// baseline at most at `moved` (pass kInvalidTask to waive the contract
/// and force a full replay).  Implementations return makespans that are
/// bit-identical to sched::PinnedScheduler replayed through sim::simulate.
class CostOracle {
 public:
  virtual ~CostOracle() = default;

  /// Full replay of `mapping`; it becomes the accepted baseline.
  virtual Time reset(const std::vector<ProcId>& mapping) = 0;

  /// Exact simulated makespan of `mapping` (see the class contract).
  virtual Time propose(const std::vector<ProcId>& mapping, TaskId moved) = 0;

  /// Adopts the mapping of the last propose() as the new baseline.
  virtual void accept() = 0;

  virtual const CostOracleStats& stats() const = 0;
  virtual std::string name() const = 0;
};

/// Reference oracle: every proposal is a from-scratch pinned replay.
/// This is exactly the PR 1 ReplayWorkspace behavior (one reused policy,
/// a fresh simulation per call).
class FullReplayOracle final : public CostOracle {
 public:
  /// `faults` (optional, must outlive the oracle) injects the given fault
  /// spec into every replay, pricing mappings against the faulty
  /// environment (fault timelines are policy- and mapping-independent, so
  /// paired comparisons stay meaningful).
  FullReplayOracle(const TaskGraph& graph, const Topology& topology,
                   const CommModel& comm,
                   const sim::FaultSpec* faults = nullptr);

  Time reset(const std::vector<ProcId>& mapping) override;
  Time propose(const std::vector<ProcId>& mapping, TaskId moved) override;
  void accept() override { ++stats_.accepts; }
  const CostOracleStats& stats() const override { return stats_; }
  std::string name() const override { return "full-replay"; }

 private:
  Time replay(const std::vector<ProcId>& mapping);

  const TaskGraph& graph_;
  const Topology& topology_;
  const CommModel& comm_;
  sched::PinnedScheduler policy_;
  sim::SimOptions sim_options_;
  CostOracleStats stats_;
};

/// Tuning knobs of the incremental oracle.  The defaults are what
/// BM_GlobalOracle was tuned with; they only affect speed, never results
/// (equivalence holds for any values).
struct IncrementalReplayOptions {
  /// Target number of cached state checkpoints per timeline.  More
  /// checkpoints mean finer resume points but a higher snapshot cost on
  /// reset and accept (the only runs that record; rejected proposals —
  /// the vast majority of an annealing chain — never snapshot).  48 won
  /// the BM_GlobalOracle sweep over {16, 24, 32, 48} on 128-task graphs.
  int max_checkpoints = 48;

  /// Divergence epochs in the first `full_replay_fraction` of the
  /// timeline fall back to a plain full replay: copying a near-initial
  /// snapshot costs more than it saves.
  double full_replay_fraction = 0.05;
};

/// The incremental oracle (see the file comment for the mechanism).  The
/// timeline semantics are tied to sched::PinnedScheduler: the divergence
/// walk replicates its epoch decision rule exactly.
class IncrementalReplay final : public CostOracle {
 public:
  IncrementalReplay(const TaskGraph& graph, const Topology& topology,
                    const CommModel& comm,
                    IncrementalReplayOptions options = {});

  Time reset(const std::vector<ProcId>& mapping) override;
  Time propose(const std::vector<ProcId>& mapping, TaskId moved) override;
  void accept() override;
  const CostOracleStats& stats() const override { return stats_; }
  std::string name() const override { return "incremental"; }

  /// Cached checkpoints of the accepted timeline (exposed for tests).
  int num_checkpoints() const {
    return static_cast<int>(baseline_.checkpoints.size());
  }

 private:
  class Recorder;

  /// One epoch's decision record.  With only one task's target changed,
  /// the pinned rule's outcome at an epoch can differ from the record iff
  /// the moved task now captures its new processor there (or the epoch is
  /// the one that placed it) — so the walk needs just the idle set and
  /// the assignments, not the full ready ordering.
  struct EpochDecision {
    std::vector<ProcId> idle;                  ///< ascending
    std::vector<sim::Assignment> assignments;  ///< priority order
  };

  struct Timeline {
    std::vector<ProcId> mapping;
    Time makespan = 0;
    int epoch_count = 0;
    std::vector<EpochDecision> decisions;  ///< one per epoch
    std::vector<int> first_ready_epoch;    ///< per task
    std::vector<int> assigned_epoch;       ///< per task
    std::vector<sim::SimCheckpoint> checkpoints;  ///< ascending epochs
  };

  /// First epoch at which the pinned decisions for `mapping` (equal to
  /// the baseline except at `moved`) differ from the baseline timeline.
  int divergence_epoch(const std::vector<ProcId>& mapping, TaskId moved);
  /// Index of the latest baseline checkpoint at or before
  /// `damage_epoch`, or -1 when the full-replay fallback applies.
  int resume_checkpoint_index(int damage_epoch) const;
  /// Simulates `mapping` without recording anything, resuming from
  /// checkpoint `resume_index` when >= 0; fills trial_'s run fields.
  Time price(const std::vector<ProcId>& mapping, int resume_index,
             int divergence);
  /// Re-runs the accepted trial with recording on and splices the new
  /// timeline suffix (decisions, stamps, checkpoints) into baseline_.
  void rebuild_baseline(int resume_index);
  /// Moves baseline checkpoints [keep, end) into checkpoint_pool_ so the
  /// next recording run reuses their state buffers instead of allocating.
  void retire_checkpoints(std::size_t keep);

  const TaskGraph& graph_;
  const Topology& topology_;
  const CommModel& comm_;
  IncrementalReplayOptions options_;
  sched::PinnedScheduler policy_;
  sim::ResumableEngine engine_;
  std::vector<Time> levels_;  ///< pinned priority levels (graph analysis)
  CostOracleStats stats_;

  bool baseline_valid_ = false;
  Timeline baseline_;

  struct Trial {
    bool valid = false;
    bool noop = false;
    bool memoized = false;
    TaskId moved = kInvalidTask;
    std::vector<ProcId> mapping;
    Time makespan = 0;
    int divergence = 0;     ///< first differing epoch
    int resume_index = -1;  ///< baseline checkpoint resumed, -1 = full
  };
  Trial trial_;

  /// Exact per-baseline memo of single-task moves: memo_[task * P + proc]
  /// is the proposal's makespan, or kUnpriced.  Cleared on every accept.
  std::vector<Time> memo_;
  std::vector<int> scratch_ready_;     ///< accept-recording stamp scratch
  std::vector<int> scratch_assigned_;  ///< accept-recording stamp scratch
  /// Retired snapshots whose state buffers the recorder recycles
  /// (EpochView::checkpoint(recycle)); bounded by max_checkpoints.
  std::vector<sim::SimCheckpoint> checkpoint_pool_;
};

/// Factory used by anneal_global and tests.  With an active `faults` spec
/// (which must outlive the oracle) kAuto resolves to the full replay and
/// an explicit kIncremental is rejected — see resolve_cost_oracle_kind.
std::unique_ptr<CostOracle> make_cost_oracle(
    CostOracleKind kind, const TaskGraph& graph, const Topology& topology,
    const CommModel& comm, const sim::FaultSpec* faults = nullptr);

}  // namespace dagsched::sa
