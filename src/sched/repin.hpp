#pragma once

// Fault-repairing variant of the pinned replay: tasks keep their static
// mapping while their machine is alive, but a ready task whose pinned
// processor is *down* (sim::EpochContext::down_procs) is re-pinned to the
// first still-free idle processor instead of waiting out the repair.
//
// This is the `on_fault = repin` repair strategy of the offline planners
// (the gsa policy replays its annealed mapping through this scheduler).
// With no faults injected the down set is always empty and the behavior
// is identical to sched::PinnedScheduler — same dispatch order, same
// placements.

#include <vector>

#include "sched/pinned.hpp"

namespace dagsched::sched {

class RepinScheduler : public sim::SchedulingPolicy {
 public:
  /// `mapping[t]` is the processor task t should run on; must cover every
  /// task of the graph (checked at run start).
  explicit RepinScheduler(std::vector<ProcId> mapping);

  void on_run_start(const TaskGraph& graph, const Topology& topology,
                    const CommModel&) override;
  void on_epoch(sim::EpochContext& ctx) override;
  std::string name() const override { return "repin"; }

 private:
  std::vector<ProcId> mapping_;
  PinnedDispatch dispatch_;
};

}  // namespace dagsched::sched
