#include "sched/dagprio.hpp"

#include "sim/arrivals.hpp"

namespace dagsched::sched {

DagPrioScheduler::DagPrioScheduler(double w_cp, double w_slack, double w_age)
    : w_cp_(w_cp), w_slack_(w_slack), w_age_(w_age) {}

void DagPrioScheduler::on_run_start(const TaskGraph& graph, const Topology&,
                                    const CommModel&) {
  ready_.clear(static_cast<std::size_t>(graph.num_tasks()), 1);
}

void DagPrioScheduler::select_online(const sim::EpochContext& ctx) {
  const sim::ArrivalPlan& plan = *ctx.arrivals();
  const std::vector<Time>& levels = ctx.levels();
  const Time now = ctx.now();
  // LINT-ALLOW(ready-scan): online, age and slack move with the clock, so every ready task is rescored each epoch
  const std::span<const TaskId> ready = ctx.ready_tasks();
  score_.assign(ready.size(), 0.0);
  for (std::size_t i = 0; i < ready.size(); ++i) {
    const TaskId task = ready[i];
    const Time level = levels[static_cast<std::size_t>(task)];
    const int wf = plan.task_workflow[static_cast<std::size_t>(task)];
    double s = w_cp_ * to_us(level);
    s += w_age_ * to_us(now - plan.arrival[static_cast<std::size_t>(wf)]);
    const Time deadline = plan.deadline[static_cast<std::size_t>(wf)];
    if (deadline != kTimeInfinity) {
      // Negative slack (already late) raises the score further.
      s -= w_slack_ * to_us(deadline - now - level);
    }
    score_[i] = s;
  }
  // Rank: score descending, task id ascending on exact ties.
  rank_.resize(ready.size());
  for (std::size_t i = 0; i < rank_.size(); ++i) rank_[i] = i;
  keep_top_k(rank_, free_.size(), [&](std::size_t a, std::size_t b) {
    if (score_[a] != score_[b]) return score_[a] > score_[b];
    return ready[a] < ready[b];
  });
  order_.clear();
  for (const std::size_t i : rank_) order_.push_back(ready[i]);
}

void DagPrioScheduler::on_epoch(sim::EpochContext& ctx) {
  // Only the |idle| best-scored tasks can be assigned.
  free_.assign(ctx.idle_procs().begin(), ctx.idle_procs().end());
  if (ctx.arrivals() != nullptr) {
    select_online(ctx);
  } else {
    // Offline the score is w_cp * level: fixed, so indexed once per task.
    const std::vector<Time>& levels = ctx.levels();
    for (const TaskId task : ctx.newly_ready()) {
      ready_.add(0, task,
                 -(w_cp_ * to_us(levels[static_cast<std::size_t>(task)])));
    }
    ready_.take(0, free_.size(), order_);
  }

  for (const TaskId task : order_) {
    std::size_t pick = 0;
    Time best = incoming_comm_cost(ctx, task, free_[0]);
    for (std::size_t j = 1; j < free_.size(); ++j) {
      const Time cost = incoming_comm_cost(ctx, task, free_[j]);
      if (cost < best) {
        best = cost;
        pick = j;
      }
    }
    ctx.assign(task, free_[pick]);
    free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(pick));
  }
}

std::string DagPrioScheduler::name() const { return "dagprio"; }

}  // namespace dagsched::sched
