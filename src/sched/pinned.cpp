#include "sched/pinned.hpp"

#include <algorithm>

#include "sched/policy.hpp"
#include "util/require.hpp"

namespace dagsched::sched {

const std::vector<int>& PinnedDispatch::level_ranks(
    const std::vector<Time>& levels) {
  if (ranks_checked_) return rank_;
  ranks_checked_ = true;
  if (levels == ranked_levels_) {
    return rank_;  // same graph as the previous run: ranks hold
  }
  std::vector<TaskId> order(levels.size());
  for (std::size_t t = 0; t < order.size(); ++t) {
    order[t] = static_cast<TaskId>(t);
  }
  std::sort(order.begin(), order.end(), HigherLevelFirst{levels});
  rank_.resize(levels.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    rank_[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  ranked_levels_ = levels;
  return rank_;
}

void PinnedDispatch::dispatch(sim::EpochContext& ctx,
                              const std::vector<int>& rank,
                              const std::vector<ProcId>& target, bool repin) {
  const auto procs = static_cast<std::size_t>(ctx.topology().num_procs());
  if (idle_stamp_.size() != procs) {
    idle_stamp_.assign(procs, 0);
    down_stamp_.assign(procs, 0);
    used_stamp_.assign(procs, 0);
    best_stamp_.assign(procs, 0);
    best_task_.resize(procs);
  }
  const std::uint64_t stamp = ++stamp_;
  const std::span<const ProcId> idle = ctx.idle_procs();
  for (const ProcId p : idle) idle_stamp_[static_cast<std::size_t>(p)] = stamp;
  const bool repair = repin && !ctx.down_procs().empty();
  if (repair) {
    for (const ProcId p : ctx.down_procs()) {
      down_stamp_[static_cast<std::size_t>(p)] = stamp;
    }
  }
  const auto rank_of = [&rank](TaskId t) {
    return rank[static_cast<std::size_t>(t)];
  };

  // One linear pass: each idle processor's best-ranked ready task, and
  // every ready task stranded on a down processor.
  stranded_.clear();
  for (const TaskId task : ctx.ready_tasks()) {
    const auto slot =
        static_cast<std::size_t>(target[static_cast<std::size_t>(task)]);
    if (idle_stamp_[slot] == stamp) {
      if (best_stamp_[slot] != stamp ||
          rank_of(task) < rank_of(best_task_[slot])) {
        best_stamp_[slot] = stamp;
        best_task_[slot] = task;
      }
    } else if (repair && down_stamp_[slot] == stamp) {
      stranded_.push_back(task);
    }
  }
  candidates_.clear();
  for (const ProcId p : idle) {
    if (best_stamp_[static_cast<std::size_t>(p)] == stamp) {
      candidates_.push_back(best_task_[static_cast<std::size_t>(p)]);
    }
  }
  const auto by_rank = [&rank_of](TaskId a, TaskId b) {
    return rank_of(a) < rank_of(b);
  };
  keep_top_k(stranded_, idle.size(), by_rank);
  candidates_.insert(candidates_.end(), stranded_.begin(), stranded_.end());
  std::sort(candidates_.begin(), candidates_.end(), by_rank);

  // The reference walk over the candidates.  A processor before
  // `next_free` is always taken, so the repin scan never restarts.
  std::size_t next_free = 0;
  for (const TaskId task : candidates_) {
    const ProcId proc = target[static_cast<std::size_t>(task)];
    const auto slot = static_cast<std::size_t>(proc);
    if (idle_stamp_[slot] == stamp && used_stamp_[slot] != stamp) {
      ctx.assign(task, proc);
      used_stamp_[slot] = stamp;
    } else if (repair && down_stamp_[slot] == stamp) {
      while (next_free < idle.size() &&
             used_stamp_[static_cast<std::size_t>(idle[next_free])] == stamp) {
        ++next_free;
      }
      if (next_free == idle.size()) continue;
      ctx.assign(task, idle[next_free]);
      used_stamp_[static_cast<std::size_t>(idle[next_free])] = stamp;
    }
  }
}

PinnedScheduler::PinnedScheduler(std::vector<ProcId> mapping)
    : mapping_(std::move(mapping)) {}

void PinnedScheduler::on_run_start(const TaskGraph& graph,
                                   const Topology& topology,
                                   const CommModel&) {
  require(static_cast<int>(mapping_.size()) == graph.num_tasks(),
          "PinnedScheduler: mapping size differs from the task count");
  for (const ProcId p : mapping_) {
    require(topology.is_valid_proc(p),
            "PinnedScheduler: mapping names a missing processor");
  }
  dispatch_.begin_run();  // levels arrive with the first epoch
}

void PinnedScheduler::on_epoch(sim::EpochContext& ctx) {
  // When several ready tasks are pinned to the same processor, dispatch
  // the highest-level one first (ties: lowest id) — the same priority the
  // list schedulers use, so replaying a placement does not lose schedule
  // quality to arbitrary intra-processor ordering.
  dispatch_.dispatch(ctx, dispatch_.level_ranks(ctx.levels()), mapping_,
                     /*repin=*/false);
}

}  // namespace dagsched::sched
