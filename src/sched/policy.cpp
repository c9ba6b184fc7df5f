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

}  // namespace dagsched::sched
