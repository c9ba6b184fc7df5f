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
//  * on_epoch costs O(|newly_ready| log n + k log n) for the
//    k = min(|ready|, |idle|) tasks it can assign, never a scan of the
//    whole ready set: at workflow scale thousands of tasks are ready while
//    about one is assigned.  Rank-ordered policies keep a ReadyIndex (below)
//    fed from EpochContext::newly_ready().  The exceptions read the whole
//    ready set each epoch and say why where they do: `random` (its pinned
//    shuffle draws over every ready task), `dagprio` on an online run (the
//    score moves with the clock), `etf` (sched/etf.hpp) and the annealing
//    scheduler's packet former (core/packet.cpp).
//  * Policies must be deterministic functions of (graph, topology, comm,
//    epoch contexts, their own seed): all randomness must come from an
//    explicitly seeded dagsched::Rng (or a derived stream), never from
//    global state — the report and sweep layers depend on replayable
//    runs.
//  * A policy instance is reusable across runs (on_run_start must fully
//    reset it) but is never shared between concurrently running engines;
//    batch drivers construct one policy per concurrent simulation.

#include <algorithm>
#include <cstdint>
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

/// The ready pool of one run, held by the policy as one binary heap per
/// *lane* under a key that stays fixed while the task is ready.  A lane is
/// whatever the policy dispatches from: one lane for the list policies,
/// one per target processor for the mapping replays.  Entries are ordered
/// by (key, task) ascending — the best entry has the smallest key, ties
/// toward the lower id — so a selection under the index is unique.
///
/// The policy feeds it from EpochContext::newly_ready() and takes tasks
/// out as it assigns them; clear() in on_run_start resets it (the first
/// epoch of every run and resume delivers the whole pool).  Deletion is
/// lazy: erase() bumps the task's stamp, and entries whose stamp no longer
/// matches are dropped when they surface at a lane's top.  A task that a
/// crash sends back to the pool re-enters with a fresh stamp, so the
/// entries of its earlier stay are never mistaken for live ones.
template <class Key>
class ReadyIndex {
 public:
  struct Entry {
    Key key;
    TaskId task;
    std::uint32_t stamp;
  };

  /// Empties the index for a run over `num_tasks` tasks and `num_lanes`
  /// lanes (buffers keep their capacity).
  void clear(std::size_t num_tasks, std::size_t num_lanes) {
    stamp_.assign(num_tasks, 0);
    lanes_.resize(num_lanes);
    for (std::vector<Entry>& lane : lanes_) lane.clear();
  }

  bool contains(TaskId task) const {
    return (stamp_[static_cast<std::size_t>(task)] & 1u) != 0;
  }

  /// Enters `task` with one entry in `lane`; a task already in is left
  /// as it is (returns false).
  bool add(std::size_t lane, TaskId task, Key key) {
    std::uint32_t& stamp = stamp_[static_cast<std::size_t>(task)];
    if ((stamp & 1u) != 0) return false;
    ++stamp;  // odd: in the index
    push(lane, task, key);
    return true;
  }

  /// Adds one more entry for a task already in the index (a policy that
  /// files a task under several lanes, or puts back a popped entry).
  void push(std::size_t lane, TaskId task, Key key) {
    std::vector<Entry>& heap = lanes_[lane];
    heap.push_back(Entry{key, task, stamp_[static_cast<std::size_t>(task)]});
    std::push_heap(heap.begin(), heap.end(), after);
  }

  /// Takes `task` out of the index: every entry it has goes stale.
  void erase(TaskId task) {
    ++stamp_[static_cast<std::size_t>(task)];  // even: out
  }

  /// The best live entry of `lane`, or null when the lane holds none.
  const Entry* top(std::size_t lane) {
    std::vector<Entry>& heap = lanes_[lane];
    while (!heap.empty()) {
      const Entry& best = heap.front();
      if (best.stamp == stamp_[static_cast<std::size_t>(best.task)]) {
        return &best;
      }
      pop(lane);  // stale
    }
    return nullptr;
  }

  /// Removes the top entry of `lane` (its task stays in the index).
  void pop(std::size_t lane) {
    std::vector<Entry>& heap = lanes_[lane];
    std::pop_heap(heap.begin(), heap.end(), after);
    heap.pop_back();
  }

  /// Takes the (at most) `k` best tasks of `lane` out of the index into
  /// `out`, best first.  `out` is reused scratch, overwritten.
  void take(std::size_t lane, std::size_t k, std::vector<TaskId>& out) {
    out.clear();
    while (out.size() < k) {
      const Entry* best = top(lane);
      if (best == nullptr) break;
      const TaskId task = best->task;
      pop(lane);
      erase(task);
      out.push_back(task);
    }
  }

 private:
  /// Heap order: `a` sits below `b` when b comes first.
  static bool after(const Entry& a, const Entry& b) {
    return b.key < a.key || (!(a.key < b.key) && b.task < a.task);
  }

  std::vector<std::vector<Entry>> lanes_;
  std::vector<std::uint32_t> stamp_;  ///< odd while the task is in
};

}  // namespace dagsched::sched
