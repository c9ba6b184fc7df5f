#pragma once

// ETF-style baseline: Earliest (estimated) Start Time First, communication
// aware.  At each epoch the scheduler repeatedly picks the (ready task,
// idle processor) pair whose estimated start time — the epoch instant plus
// the eq. 4 analytic cost of moving the task's inputs to that processor —
// is smallest, breaking ties toward the higher task level and then the
// lower ids.  A classic greedy contemporary of the paper's HLF baseline,
// provided as an additional comparison point: it shares SA's cost signal
// but not its ability to escape greedy decisions.
//
// A ready task's incoming cost on each processor depends only on where
// its finished predecessors ran, and finished outputs survive faults, so
// the cost is fixed from the first epoch the task is ready until the end
// of the run (a task killed by a crash re-enters the ready pool with the
// same predecessors).  The policy fills a task's per-processor row once,
// the first time it sees the task ready, and epochs only look rows up.
//
// ETF is the one rank-ordered policy that still scans the whole ready set
// each epoch (O(|ready| * |idle|)).  A ReadyIndex with one lane per
// processor, keyed by (start cost there, -level), gives the same pairs
// from the idle lanes' tops, but it files every task P times and leaves
// P - 1 stale entries per assignment; on the 128-task rung of
// BM_ListPolicy it measured about 20% slower than this scan, so the scan
// stays.

#include <vector>

#include "sched/policy.hpp"

namespace dagsched::sched {

class EtfScheduler : public sim::SchedulingPolicy {
 public:
  void on_run_start(const TaskGraph& graph, const Topology& topology,
                    const CommModel&) override;
  void on_epoch(sim::EpochContext& ctx) override;
  std::string name() const override { return "ETF"; }

 private:
  std::size_t num_procs_ = 0;
  /// Per-run memo: start_cost_[t * num_procs_ + p] is incoming_comm_cost
  /// of t on p, valid once known_[t] is set.
  std::vector<Time> start_cost_;
  std::vector<char> known_;
  std::vector<TaskId> tasks_;  ///< per-epoch scratch
  std::vector<ProcId> procs_;  ///< per-epoch scratch
};

}  // namespace dagsched::sched
