#include "sched/fixed_list.hpp"

#include <algorithm>

#include "graph/analysis.hpp"
#include "util/require.hpp"

namespace dagsched::sched {

std::vector<TaskId> hlf_priority_list(const TaskGraph& graph) {
  const std::vector<Time> levels = task_levels(graph);
  std::vector<TaskId> list(static_cast<std::size_t>(graph.num_tasks()));
  for (std::size_t t = 0; t < list.size(); ++t) {
    list[t] = static_cast<TaskId>(t);
  }
  std::sort(list.begin(), list.end(), HigherLevelFirst{levels});
  return list;
}

FixedListScheduler::FixedListScheduler(std::vector<TaskId> priority_list)
    : list_(std::move(priority_list)) {}

void FixedListScheduler::on_run_start(const TaskGraph& graph, const Topology&,
                                      const CommModel&) {
  require(static_cast<int>(list_.size()) == graph.num_tasks(),
          "FixedListScheduler: list size differs from the task count");
  rank_.assign(list_.size(), -1);
  for (std::size_t pos = 0; pos < list_.size(); ++pos) {
    const TaskId t = list_[pos];
    require(graph.is_valid_task(t), "FixedListScheduler: bad task in list");
    require(rank_[static_cast<std::size_t>(t)] == -1,
            "FixedListScheduler: duplicate task in list");
    rank_[static_cast<std::size_t>(t)] = static_cast<int>(pos);
  }
  ready_.clear(list_.size(), 1);
}

void FixedListScheduler::on_epoch(sim::EpochContext& ctx) {
  // Only the |idle| first-listed ready tasks can be assigned.
  for (const TaskId task : ctx.newly_ready()) {
    ready_.add(0, task, rank_[static_cast<std::size_t>(task)]);
  }
  const std::span<const ProcId> idle = ctx.idle_procs();
  ready_.take(0, idle.size(), order_);
  for (std::size_t i = 0; i < order_.size(); ++i) {
    ctx.assign(order_[i], idle[i]);
  }
}

}  // namespace dagsched::sched
