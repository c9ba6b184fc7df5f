#pragma once

// Classic Graham list scheduling with an externally supplied priority list:
// at every epoch the ready task appearing earliest in the list is assigned
// to the lowest-numbered idle processor, and so on while both exist.
//
// This is the scheduler of Graham's anomaly study [Graham 1969] — see
// gen::graham_anomaly() — where *shortening* every task can lengthen the
// schedule produced from the same list.

#include <vector>

#include "sched/policy.hpp"

namespace dagsched::sched {

/// The HLF priority list over *all* tasks of the graph: level n_i
/// descending, ties toward the lower id.  Feeding this list into
/// FixedListScheduler gives classic Graham list scheduling with the HLF
/// order — the sweep's "list-hlf" policy.  One shared definition (the
/// sweep runner used to carry a private copy) so tests, examples and the
/// runner agree on the order.
std::vector<TaskId> hlf_priority_list(const TaskGraph& graph);

class FixedListScheduler : public sim::SchedulingPolicy {
 public:
  /// `priority_list` must be a permutation of all task ids of the graph the
  /// scheduler is run on (checked at run start).
  explicit FixedListScheduler(std::vector<TaskId> priority_list);

  void on_epoch(sim::EpochContext& ctx) override;
  std::string name() const override { return "fixed-list"; }

 private:
  std::vector<TaskId> list_;
  std::vector<int> rank_;  ///< rank_[task] = position in the list
  ReadyIndex<int> ready_;  ///< one lane, key rank_
  std::vector<TaskId> order_;  ///< per-epoch scratch

  void on_run_start(const TaskGraph& graph, const Topology&,
                    const CommModel&) override;
};

}  // namespace dagsched::sched
