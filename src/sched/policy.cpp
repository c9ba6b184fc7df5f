#include "sched/policy.hpp"

namespace dagsched::sched {

Time incoming_comm_cost(const sim::EpochContext& ctx, TaskId task,
                        ProcId proc) {
  const CommModel& comm = ctx.comm();
  if (!comm.enabled) return 0;
  Time cost = 0;
  for (const EdgeRef& pred : ctx.graph().predecessors(task)) {
    const ProcId src = ctx.placement()[static_cast<std::size_t>(pred.task)];
    cost += comm.analytic_cost(pred.weight,
                               ctx.topology().distance(src, proc));
  }
  return cost;
}

void ready_by_level(const sim::EpochContext& ctx, std::size_t k,
                    std::vector<TaskId>& out) {
  out.assign(ctx.ready_tasks().begin(), ctx.ready_tasks().end());
  keep_top_k(out, k, HigherLevelFirst{ctx.levels()});
}

}  // namespace dagsched::sched
