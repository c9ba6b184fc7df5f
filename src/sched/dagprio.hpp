#pragma once

// Online dag-priority scorer for arrival-stream workloads
// (sim/arrivals.hpp): a cascade-style SchedulerPolicy combining the three
// signals an online scheduler cares about into one priority score per
// ready task,
//
//   score(t) = w_cp * level(t) + w_age * age(wf(t)) - w_slack * slack(t)
//
// where level(t) is the remaining-critical-path level n_i (the HLF
// signal), age is how long the task's workflow has been in the system
// (now - arrival; anti-starvation, dominates weighted flow time), and
// slack is deadline - now - level(t) of a deadline-bearing workflow (tight
// workflows score higher; the term vanishes without a deadline).  All
// terms are in microseconds; the weights are registry config keys.
//
// Placement is communication-aware min-cost (the HLF-mincomm rule).  On an
// offline run (no arrival plan) age and slack are constant/absent, so the
// policy degenerates to HLF-mincomm ordering — deterministic either way.
// There the score w_cp * level(t) is fixed per task and the policy keeps
// the ready pool in a ReadyIndex; on an online run the score moves with
// the clock, so every epoch scores the whole ready set.

#include <vector>

#include "sched/policy.hpp"

namespace dagsched::sched {

class DagPrioScheduler : public sim::SchedulingPolicy {
 public:
  explicit DagPrioScheduler(double w_cp = 1.0, double w_slack = 1.0,
                            double w_age = 0.1);

  void on_run_start(const TaskGraph& graph, const Topology&,
                    const CommModel&) override;
  void on_epoch(sim::EpochContext& ctx) override;
  std::string name() const override;

 private:
  /// Online runs: the |free_| best-scored ready tasks into order_.
  void select_online(const sim::EpochContext& ctx);

  double w_cp_;
  double w_slack_;
  double w_age_;
  ReadyIndex<double> ready_;       ///< offline runs: one lane, key -score
  std::vector<TaskId> order_;      ///< per-epoch scratch, best first
  std::vector<double> score_;      ///< per-epoch scratch, by ready index
  std::vector<std::size_t> rank_;  ///< per-epoch scratch, ready indices
  std::vector<ProcId> free_;       ///< per-epoch scratch
};

}  // namespace dagsched::sched
