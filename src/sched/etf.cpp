#include "sched/etf.hpp"

#include <algorithm>

namespace dagsched::sched {

void EtfScheduler::on_run_start(const TaskGraph& graph,
                                const Topology& topology, const CommModel&) {
  num_procs_ = static_cast<std::size_t>(topology.num_procs());
  const auto num_tasks = static_cast<std::size_t>(graph.num_tasks());
  start_cost_.resize(num_tasks * num_procs_);
  known_.assign(num_tasks, 0);
}

void EtfScheduler::on_epoch(sim::EpochContext& ctx) {
  // LINT-ALLOW(ready-scan): per-processor lanes measured slower at 128 tasks, so ETF keeps its memoized pair scan (sched/etf.hpp)
  const std::span<const TaskId> ready = ctx.ready_tasks();
  tasks_.assign(ready.begin(), ready.end());
  procs_.assign(ctx.idle_procs().begin(), ctx.idle_procs().end());
  for (const TaskId task : tasks_) {
    char& known = known_[static_cast<std::size_t>(task)];
    if (known) continue;
    Time* row = &start_cost_[static_cast<std::size_t>(task) * num_procs_];
    for (std::size_t p = 0; p < num_procs_; ++p) {
      row[p] = incoming_comm_cost(ctx, task, static_cast<ProcId>(p));
    }
    known = 1;
  }

  while (!tasks_.empty() && !procs_.empty()) {
    std::size_t best_task = 0;
    std::size_t best_proc = 0;
    Time best_ready = kTimeInfinity;
    Time best_level = -1;
    for (std::size_t ti = 0; ti < tasks_.size(); ++ti) {
      const TaskId task = tasks_[ti];
      const Time level = ctx.levels()[static_cast<std::size_t>(task)];
      const Time* row =
          &start_cost_[static_cast<std::size_t>(task) * num_procs_];
      for (std::size_t pi = 0; pi < procs_.size(); ++pi) {
        const Time ready = row[static_cast<std::size_t>(procs_[pi])];
        const bool better =
            ready < best_ready ||
            (ready == best_ready &&
             (level > best_level ||
              (level == best_level &&
               (task < tasks_[best_task] ||
                (task == tasks_[best_task] &&
                 procs_[pi] < procs_[best_proc])))));
        if (better) {
          best_task = ti;
          best_proc = pi;
          best_ready = ready;
          best_level = level;
        }
      }
    }
    ctx.assign(tasks_[best_task], procs_[best_proc]);
    tasks_.erase(tasks_.begin() + static_cast<std::ptrdiff_t>(best_task));
    procs_.erase(procs_.begin() + static_cast<std::ptrdiff_t>(best_proc));
  }
}

}  // namespace dagsched::sched
