#include "sched/random_policy.hpp"

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace dagsched::sched {

RandomScheduler::RandomScheduler(std::uint64_t seed)
    : seed_(seed), draw_state_(seed) {}

void RandomScheduler::on_run_start(const TaskGraph&, const Topology&,
                                   const CommModel&) {
  draw_state_ = seed_;
}

void RandomScheduler::on_epoch(sim::EpochContext& ctx) {
  // LINT-ALLOW(rng-stream): per-epoch reseed from draw_state_ is the policy's pinned bit-compat stream
  Rng rng(draw_state_);
  // LINT-ALLOW(ready-scan): the pinned shuffle draws over every ready task, so the whole set is read
  const std::span<const TaskId> ready = ctx.ready_tasks();
  std::vector<TaskId> tasks(ready.begin(), ready.end());
  std::vector<ProcId> procs(ctx.idle_procs().begin(),
                            ctx.idle_procs().end());
  rng.shuffle(tasks);
  rng.shuffle(procs);
  const std::size_t count = std::min(tasks.size(), procs.size());
  for (std::size_t i = 0; i < count; ++i) ctx.assign(tasks[i], procs[i]);
  draw_state_ = rng.next_u64();
}

}  // namespace dagsched::sched
