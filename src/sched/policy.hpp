#pragma once

// Shared helpers for concrete scheduling policies, plus the contract
// every policy implementation must honour.
//
// Policy interface contract (the interface itself is
// sim::SchedulingPolicy in sim/scheduler_api.hpp):
//
//  * The engine calls on_run_start once per run, then on_epoch at time
//    zero and whenever a processor returns to the idle pool while
//    unassigned ready tasks exist.  A policy must not retain references
//    into the EpochContext past the on_epoch call.
//  * Within one epoch a policy may assign each ready task and each idle
//    processor at most once (ctx.assign checks this); tasks it leaves
//    unassigned are offered again at the next epoch.  A policy that can
//    stall forever (assigning nothing while tasks remain) makes the
//    engine raise SimulationError.
//  * on_epoch costs O(|ready| + k log k) for the k = min(|ready|, |idle|)
//    tasks it can assign, never a sort of the whole ready set: at workflow
//    scale thousands of tasks are ready while about one is assigned.
//  * Policies must be deterministic functions of (graph, topology, comm,
//    epoch contexts, their own seed): all randomness must come from an
//    explicitly seeded dagsched::Rng (or a derived stream), never from
//    global state — the report and sweep layers depend on replayable
//    runs.
//  * A policy instance is reusable across runs (on_run_start must fully
//    reset it) but is never shared between concurrently running engines;
//    batch drivers construct one policy per concurrent simulation.

#include <algorithm>
#include <vector>

#include "sim/scheduler_api.hpp"

namespace dagsched::sched {

/// Analytic communication cost (eq. 4) of running `task` on `proc`: the sum
/// over the task's predecessors of the cost of moving their messages from
/// the predecessor's processor.  Zero when communication is disabled.
///
/// @param ctx   the current epoch (placement of all finished/assigned
///              tasks; predecessors of ready tasks are always placed).
/// @param task  a ready task of the epoch.
/// @param proc  the candidate processor for `task`.
/// @return the estimated incoming-communication time, in the integer
///         nanosecond time base (an *estimate*: the simulator additionally
///         models contention and preemption).
Time incoming_comm_cost(const sim::EpochContext& ctx, TaskId task,
                        ProcId proc);

/// The HLF priority: level n_i descending, ties toward the lower id.  A
/// strict total order, so any selection under it is unique.
struct HigherLevelFirst {
  const std::vector<Time>& levels;
  bool operator()(TaskId a, TaskId b) const {
    const Time la = levels[static_cast<std::size_t>(a)];
    const Time lb = levels[static_cast<std::size_t>(b)];
    return la != lb ? la > lb : a < b;
  }
};

/// Shrinks `items` to its `k` first elements under the strict total order
/// `before`, in that order — the same prefix a full sort would give, at
/// O(|items| log k) instead of O(|items| log |items|).
template <class T, class Before>
void keep_top_k(std::vector<T>& items, std::size_t k, Before before) {
  k = std::min(k, items.size());
  const auto end = items.begin() + static_cast<std::ptrdiff_t>(k);
  std::partial_sort(items.begin(), end, items.end(), before);
  items.resize(k);
}

/// The `k` highest-level ready tasks, highest first (ties: ascending id) —
/// the Highest-Level-First candidates.  HLF passes k = |idle|, the most it
/// can assign; the rest of the ready set is never sorted.
///
/// @param ctx  the current epoch; levels come from ctx.levels().
/// @param k    how many tasks to select (at most |ready| are returned).
/// @param out  receives the selection; reused scratch, overwritten.
void ready_by_level(const sim::EpochContext& ctx, std::size_t k,
                    std::vector<TaskId>& out);

}  // namespace dagsched::sched
