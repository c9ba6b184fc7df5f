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
    used_stamp_.assign(procs, 0);
  }
  const auto index = [&](TaskId task) {
    const auto t = static_cast<std::size_t>(task);
    ready_.add(static_cast<std::size_t>(target[t]), task, rank[t]);
  };
  if (reindex_) {
    reindex_ = false;
    ready_.clear(static_cast<std::size_t>(ctx.graph().num_tasks()), procs);
    // LINT-ALLOW(ready-scan): the index rebuild: ranks and targets changed, so every ready task is refiled once
    for (const TaskId task : ctx.ready_tasks()) index(task);
  } else {
    for (const TaskId task : ctx.newly_ready()) index(task);
  }

  const std::uint64_t stamp = ++stamp_;
  const std::span<const ProcId> idle = ctx.idle_procs();
  for (const ProcId p : idle) idle_stamp_[static_cast<std::size_t>(p)] = stamp;
  const std::span<const ProcId> down =
      repin ? ctx.down_procs() : std::span<const ProcId>();
  const auto rank_of = [&rank](TaskId t) {
    return rank[static_cast<std::size_t>(t)];
  };

  // Each idle processor's best-ranked ready task, then the |idle|
  // best-ranked tasks stranded on down processors, merged across their
  // lanes.  Stranded entries are popped; the ones not assigned below go
  // back.
  candidates_.clear();
  for (const ProcId p : idle) {
    const auto* best = ready_.top(static_cast<std::size_t>(p));
    if (best != nullptr) candidates_.push_back(best->task);
  }
  stranded_.clear();
  while (stranded_.size() < idle.size()) {
    std::size_t lane = procs;
    int lane_rank = 0;
    for (const ProcId p : down) {
      const auto* best = ready_.top(static_cast<std::size_t>(p));
      if (best != nullptr && (lane == procs || best->key < lane_rank)) {
        lane = static_cast<std::size_t>(p);
        lane_rank = best->key;
      }
    }
    if (lane == procs) break;
    stranded_.push_back(ready_.top(lane)->task);
    ready_.pop(lane);
  }
  candidates_.insert(candidates_.end(), stranded_.begin(), stranded_.end());
  std::sort(candidates_.begin(), candidates_.end(),
            [&rank_of](TaskId a, TaskId b) { return rank_of(a) < rank_of(b); });

  // The reference walk over the candidates.  A processor before
  // `next_free` is always taken, so the repin scan never restarts.  Only
  // stranded candidates have a target that is not idle.
  std::size_t next_free = 0;
  for (const TaskId task : candidates_) {
    const ProcId proc = target[static_cast<std::size_t>(task)];
    const auto slot = static_cast<std::size_t>(proc);
    ProcId pick = kInvalidProc;
    if (idle_stamp_[slot] == stamp) {
      if (used_stamp_[slot] != stamp) pick = proc;
    } else {
      while (next_free < idle.size() &&
             used_stamp_[static_cast<std::size_t>(idle[next_free])] == stamp) {
        ++next_free;
      }
      if (next_free < idle.size()) pick = idle[next_free];
    }
    if (pick == kInvalidProc) continue;
    ctx.assign(task, pick);
    used_stamp_[static_cast<std::size_t>(pick)] = stamp;
    ready_.erase(task);
  }
  for (const TaskId task : stranded_) {
    if (!ready_.contains(task)) continue;  // assigned above
    const auto t = static_cast<std::size_t>(task);
    ready_.push(static_cast<std::size_t>(target[t]), task, rank[t]);
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
  dispatch_.begin_run(graph.num_tasks(), topology.num_procs());
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
