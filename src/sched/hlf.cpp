#include "sched/hlf.hpp"

#include "util/rng.hpp"

namespace dagsched::sched {

HlfScheduler::HlfScheduler(HlfPlacement placement, std::uint64_t seed)
    : placement_(placement), seed_(seed), draw_state_(seed) {}

void HlfScheduler::on_run_start(const TaskGraph& graph, const Topology&,
                                const CommModel&) {
  draw_state_ = seed_;  // identical runs draw identical placements
  ready_.clear(static_cast<std::size_t>(graph.num_tasks()), 1);
}

void HlfScheduler::on_epoch(sim::EpochContext& ctx) {
  // The |idle| highest-level ready tasks, highest first (ties: lower id).
  const std::vector<Time>& levels = ctx.levels();
  for (const TaskId task : ctx.newly_ready()) {
    ready_.add(0, task, -levels[static_cast<std::size_t>(task)]);
  }
  free_.assign(ctx.idle_procs().begin(), ctx.idle_procs().end());
  ready_.take(0, free_.size(), order_);
  // LINT-ALLOW(rng-stream): per-epoch reseed from draw_state_ is the policy's pinned bit-compat stream
  Rng rng(draw_state_);

  for (const TaskId task : order_) {
    std::size_t pick = 0;
    switch (placement_) {
      case HlfPlacement::FirstIdle:
        pick = 0;
        break;
      case HlfPlacement::Random:
        pick = rng.uniform_index(free_.size());
        break;
      case HlfPlacement::MinComm: {
        Time best = incoming_comm_cost(ctx, task, free_[0]);
        for (std::size_t j = 1; j < free_.size(); ++j) {
          const Time cost = incoming_comm_cost(ctx, task, free_[j]);
          if (cost < best) {
            best = cost;
            pick = j;
          }
        }
        break;
      }
    }
    ctx.assign(task, free_[pick]);
    free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  draw_state_ = rng.next_u64();  // advance the stream across epochs
}

std::string HlfScheduler::name() const {
  switch (placement_) {
    case HlfPlacement::FirstIdle:
      return "HLF";
    case HlfPlacement::Random:
      return "HLF-random";
    case HlfPlacement::MinComm:
      return "HLF-mincomm";
  }
  return "HLF";
}

}  // namespace dagsched::sched
