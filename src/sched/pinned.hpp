#pragma once

// Static-mapping scheduler: every task has a fixed target processor and is
// assigned there as soon as both the task is ready and the processor idle.
//
// Useful to (a) replay an externally computed mapping through the
// simulator, and (b) construct exactly-known schedules in tests.
//
// Contract the incremental cost oracle (core/incremental_cost.hpp) relies
// on: the policy is *stateless across epochs* — each decision is a pure
// function of (ready set, idle set, mapping, levels) — so a run resumed
// from a mid-run checkpoint replays the remaining epochs bit-identically.
// Anything that carries decision state from one epoch into the next
// breaks checkpoint resume.

#include <cstdint>
#include <vector>

#include "sched/policy.hpp"

namespace dagsched::sched {

/// The dispatch step shared by the mapping-replay policies
/// (PinnedScheduler, RepinScheduler, HeftScheduler).  Every task has a
/// target processor and a unique rank (lower dispatches first).  The
/// reference rule walks the whole ready set in rank order and gives each
/// task its target when that processor is idle and still free; with
/// `repin`, a task whose target is down instead takes the lowest-numbered
/// idle processor still free.
///
/// dispatch() reproduces that assignment sequence from a ReadyIndex with
/// one lane per target processor, keyed by rank.  Only the best-ranked
/// ready task pinned to an idle processor can win it (any later one finds
/// it taken), and at most |idle| tasks with a down target can take a free
/// processor.  So the candidates are the top of each idle processor's
/// lane plus the |idle| best tasks merged from the down processors' lanes,
/// and the walk runs over just them.
///
/// The index is per run: begin_run() empties it and each epoch adds the
/// context's newly_ready() tasks.  Ranks and targets must stay fixed while
/// a task is indexed; a policy that changes them mid-run (HEFT/PEFT
/// replan) calls reindex() first.
class PinnedDispatch {
 public:
  /// Call from on_run_start: empties the ready index, and the next
  /// level_ranks() call re-checks the levels it was built from.
  void begin_run(int num_tasks, int num_procs) {
    ranks_checked_ = false;
    reindex_ = false;
    ready_.clear(static_cast<std::size_t>(num_tasks),
                 static_cast<std::size_t>(num_procs));
  }

  /// The ranks or targets changed mid-run: the next dispatch() rebuilds
  /// the index from the whole ready set.
  void reindex() { reindex_ = true; }

  /// rank[t] = position of task t in the HLF order (level descending, ties
  /// toward the lower id).  Replay loops re-run one policy against one
  /// graph thousands of times, so the argsort is skipped while the levels
  /// match the cached copy (an O(n) equality check per run).
  const std::vector<int>& level_ranks(const std::vector<Time>& levels);

  /// Declares the epoch's assignments (see the class comment).  `rank` and
  /// `target` are indexed by TaskId.
  void dispatch(sim::EpochContext& ctx, const std::vector<int>& rank,
                const std::vector<ProcId>& target, bool repin);

 private:
  ReadyIndex<int> ready_;  ///< lane = target processor, key = rank
  bool reindex_ = false;
  // Stamp arrays avoid an O(procs) clear per epoch.
  std::uint64_t stamp_ = 0;
  std::vector<std::uint64_t> idle_stamp_;
  std::vector<std::uint64_t> used_stamp_;
  std::vector<TaskId> stranded_;   ///< popped from down processors' lanes
  std::vector<TaskId> candidates_;
  std::vector<int> rank_;
  std::vector<Time> ranked_levels_;  ///< levels rank_ was built from
  bool ranks_checked_ = false;
};

class PinnedScheduler : public sim::SchedulingPolicy {
 public:
  /// `mapping[t]` is the processor task t must run on; must cover every
  /// task of the graph (checked at run start).
  explicit PinnedScheduler(std::vector<ProcId> mapping);

  void on_epoch(sim::EpochContext& ctx) override;
  std::string name() const override { return "pinned"; }

  /// Replaces the pinned mapping in place (no reallocation when the task
  /// count is unchanged), so a replay loop can reuse one scheduler — and
  /// its epoch scratch buffers — across many mappings instead of
  /// constructing a fresh policy per simulation.
  void set_mapping(const std::vector<ProcId>& mapping) {
    mapping_.assign(mapping.begin(), mapping.end());
  }

  const std::vector<ProcId>& mapping() const { return mapping_; }

 private:
  std::vector<ProcId> mapping_;
  PinnedDispatch dispatch_;

  void on_run_start(const TaskGraph& graph, const Topology& topology,
                    const CommModel&) override;
};

}  // namespace dagsched::sched
