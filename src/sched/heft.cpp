#include "sched/heft.hpp"

#include <algorithm>
#include <limits>

#include "graph/analysis.hpp"
#include "util/require.hpp"

namespace dagsched::sched {

namespace {

/// Mean eq. 4 cost of a message with wire time `w`, averaged over all
/// ordered processor pairs (p, q), p != q.  analytic_cost is affine in the
/// distance for d >= 1 — c(d) = w*d + (d-1)*tau + sigma — so the mean over
/// pairs is the same expression at the mean pairwise distance.
class MeanCommCost {
 public:
  MeanCommCost(const Topology& topology, const CommModel& comm) {
    if (!comm.enabled || topology.num_procs() < 2) return;
    const int n = topology.num_procs();
    std::int64_t distance_sum = 0;
    for (ProcId a = 0; a < n; ++a) {
      for (ProcId b = 0; b < n; ++b) {
        if (a != b) distance_sum += topology.distance(a, b);
      }
    }
    const double pairs = static_cast<double>(n) * (n - 1);
    mean_distance_ = static_cast<double>(distance_sum) / pairs;
    tau_ = static_cast<double>(comm.tau);
    sigma_ = static_cast<double>(comm.sigma);
    enabled_ = true;
  }

  double operator()(Time w) const {
    if (!enabled_) return 0.0;
    return static_cast<double>(w) * mean_distance_ +
           (mean_distance_ - 1.0) * tau_ + sigma_;
  }

 private:
  bool enabled_ = false;
  double mean_distance_ = 0.0;
  double tau_ = 0.0;
  double sigma_ = 0.0;
};

/// Busy intervals of one processor, kept sorted by (start, finish).
/// Implements the insertion-based placement: a task may occupy any gap
/// long enough to hold it, not only the time after the last scheduled task.
///
/// Slots never overlap (a zero-length slot may touch a neighbour's start
/// or finish, never its interior), so under this order the finish times
/// are sorted too.  earliest_slot therefore binary-searches past the
/// prefix of slots that end at or before `est`, and past that point the
/// reference scan — try `est` before the first remaining slot, then each
/// gap in turn, then the end — returns busy[i-1].finish for the first i
/// whose gap busy[i].start - busy[i-1].finish holds `duration`.  A
/// max-segment tree over the gaps finds that i by descent in O(log n).
/// Ordering equal starts by finish changes no answer of the scan: within a
/// group of slots sharing a start, only the first can return, with a
/// value that does not depend on which slot comes first.
class ProcTimeline {
 public:
  /// Earliest start >= `est` of a free interval of length `duration`.
  ///
  /// No skipped slot (finish <= est) can hold the task: that would need
  /// est + duration <= start <= finish <= est, i.e. a zero-length task and
  /// a zero-length slot at est — and then the first unskipped slot starts
  /// at or after est, so the test below returns the same est.  Past the
  /// skipped prefix every finish is > est, so a gap's start is its left
  /// slot's finish.
  ///
  /// When no gap anywhere holds the task (the tree's root), the task can
  /// only go before the first slot or after the last: fitting before an
  /// unskipped slot with a skipped one to its left would make that
  /// slot's gap at least `duration`.  At workflow scale this is nearly
  /// every query, and it needs no search.
  Time earliest_slot(Time est, Time duration) const {
    if (busy_.empty() || est >= busy_.back().finish) return est;
    if (tree_[1] < duration) {
      return est + duration <= busy_.front().start ? est
                                                   : busy_.back().finish;
    }
    const auto first = std::partition_point(
        busy_.begin(), busy_.end(),
        [est](const Slot& slot) { return slot.finish <= est; });
    if (est + duration <= first->start) return est;
    const std::size_t i = first_gap_at_least(
        static_cast<std::size_t>(first - busy_.begin()) + 1, duration);
    return i < busy_.size() ? busy_[i - 1].finish : busy_.back().finish;
  }

  void occupy(Time start, Time finish) {
    const Slot slot{start, finish};
    const auto pos = std::lower_bound(
        busy_.begin(), busy_.end(), slot, [](const Slot& a, const Slot& b) {
          return a.start != b.start ? a.start < b.start : a.finish < b.finish;
        });
    const auto first_moved = static_cast<std::size_t>(pos - busy_.begin());
    busy_.insert(pos, slot);
    if (busy_.size() > leaves_) {
      rebuild();
    } else {
      refresh_from(first_moved);
    }
  }

 private:
  struct Slot {
    Time start;
    Time finish;
  };

  /// Below every duration: leaf 0 (no gap before the first slot) and the
  /// padding leaves.
  static constexpr Time kNoGap = std::numeric_limits<Time>::min();

  Time gap(std::size_t i) const {
    return i == 0 ? kNoGap : busy_[i].start - busy_[i - 1].finish;
  }

  void rebuild() {
    leaves_ = std::max<std::size_t>(leaves_, 1);
    while (leaves_ < busy_.size()) leaves_ *= 2;
    tree_.assign(2 * leaves_, kNoGap);
    for (std::size_t i = 0; i < busy_.size(); ++i) {
      tree_[leaves_ + i] = gap(i);
    }
    for (std::size_t node = leaves_ - 1; node >= 1; --node) {
      tree_[node] = std::max(tree_[2 * node], tree_[2 * node + 1]);
    }
  }

  /// Re-derives leaves `first` onward and their ancestors: an insert
  /// shifts every later slot one leaf right, at a cost that grows with
  /// the shifted suffix like the vector insert itself.
  void refresh_from(std::size_t first) {
    for (std::size_t i = first; i < busy_.size(); ++i) {
      tree_[leaves_ + i] = gap(i);
    }
    std::size_t lo = leaves_ + first;
    std::size_t hi = leaves_ + busy_.size() - 1;
    while (lo > 1) {
      lo /= 2;
      hi /= 2;
      for (std::size_t node = lo; node <= hi; ++node) {
        tree_[node] = std::max(tree_[2 * node], tree_[2 * node + 1]);
      }
    }
  }

  /// The first i >= lo with gap(i) >= duration, or busy_.size() if none:
  /// climb from leaf lo until a right sibling holds a large enough gap,
  /// then descend to its leftmost such leaf.
  std::size_t first_gap_at_least(std::size_t lo, Time duration) const {
    if (lo >= busy_.size()) return busy_.size();
    std::size_t node = leaves_ + lo;
    if (tree_[node] >= duration) return lo;
    for (; node > 1; node /= 2) {
      if (node % 2 == 0 && tree_[node + 1] >= duration) {
        node += 1;
        while (node < leaves_) {
          node *= 2;
          if (tree_[node] < duration) ++node;
        }
        return node - leaves_;
      }
    }
    return busy_.size();
  }

  std::vector<Slot> busy_;
  std::vector<Time> tree_;  ///< max over gaps; node k has children 2k, 2k+1
  std::size_t leaves_ = 0;  ///< a power of two >= busy_.size()
};

/// Earliest (analytic) start of `task` on every processor given the
/// already-placed predecessors: every input must arrive, local inputs are
/// free.  `est` is overwritten, one entry per processor.
void earliest_starts(const TaskGraph& graph, const Topology& topology,
                     const CommModel& comm,
                     const std::vector<ListScheduleEntry>& placed, TaskId task,
                     std::vector<Time>& est) {
  std::fill(est.begin(), est.end(), 0);
  for (const EdgeRef& pred : graph.predecessors(task)) {
    const ListScheduleEntry& entry =
        placed[static_cast<std::size_t>(pred.task)];
    for (std::size_t p = 0; p < est.size(); ++p) {
      const Time arrival =
          entry.finish +
          comm.analytic_cost(pred.weight,
                             topology.distance(entry.proc,
                                               static_cast<ProcId>(p)));
      est[p] = std::max(est[p], arrival);
    }
  }
}

}  // namespace

std::vector<double> upward_ranks(const TaskGraph& graph,
                                 const Topology& topology,
                                 const CommModel& comm) {
  graph.validate();
  const MeanCommCost mean_cost(topology, comm);
  const std::vector<TaskId> order = topological_order(graph);
  std::vector<double> rank(static_cast<std::size_t>(graph.num_tasks()), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId t = *it;
    double best_succ = 0.0;
    for (const EdgeRef& succ : graph.successors(t)) {
      best_succ = std::max(
          best_succ,
          mean_cost(succ.weight) + rank[static_cast<std::size_t>(succ.task)]);
    }
    rank[static_cast<std::size_t>(t)] =
        static_cast<double>(graph.duration(t)) + best_succ;
  }
  return rank;
}

std::vector<std::vector<Time>> optimistic_cost_table(const TaskGraph& graph,
                                                     const Topology& topology,
                                                     const CommModel& comm) {
  graph.validate();
  const int num_procs = topology.num_procs();
  const std::vector<TaskId> order = topological_order(graph);
  std::vector<std::vector<Time>> oct(
      static_cast<std::size_t>(graph.num_tasks()),
      std::vector<Time>(static_cast<std::size_t>(num_procs), 0));
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId t = *it;
    std::vector<Time>& row = oct[static_cast<std::size_t>(t)];
    for (ProcId p = 0; p < num_procs; ++p) {
      Time worst_succ = 0;
      for (const EdgeRef& succ : graph.successors(t)) {
        const std::vector<Time>& succ_row =
            oct[static_cast<std::size_t>(succ.task)];
        Time best = kTimeInfinity;
        for (ProcId q = 0; q < num_procs; ++q) {
          const Time cost =
              succ_row[static_cast<std::size_t>(q)] +
              graph.duration(succ.task) +
              comm.analytic_cost(succ.weight, topology.distance(p, q));
          best = std::min(best, cost);
        }
        worst_succ = std::max(worst_succ, best);
      }
      row[static_cast<std::size_t>(p)] = worst_succ;
    }
  }
  return oct;
}

ListSchedule heft_schedule(const TaskGraph& graph, const Topology& topology,
                           const CommModel& comm, HeftVariant variant,
                           const std::vector<char>* excluded) {
  if (excluded != nullptr) {
    bool any_allowed = false;
    for (ProcId p = 0; p < topology.num_procs(); ++p) {
      if (static_cast<std::size_t>(p) >= excluded->size() ||
          !(*excluded)[static_cast<std::size_t>(p)]) {
        any_allowed = true;
        break;
      }
    }
    // Everything down: the mask would leave nowhere to plan — ignore it
    // (the engine dispatches nothing while no processor is idle anyway).
    if (!any_allowed) excluded = nullptr;
  }
  // The graph is validated exactly once, by whichever rank computation
  // runs first below (both are public entry points of their own).
  const int num_tasks = graph.num_tasks();
  const int num_procs = topology.num_procs();

  ListSchedule schedule;
  schedule.rank.assign(static_cast<std::size_t>(num_tasks), 0.0);
  schedule.tasks.assign(static_cast<std::size_t>(num_tasks), {});
  schedule.priority.reserve(static_cast<std::size_t>(num_tasks));

  std::vector<std::vector<Time>> oct;
  if (variant == HeftVariant::Peft) {
    oct = optimistic_cost_table(graph, topology, comm);
    for (TaskId t = 0; t < num_tasks; ++t) {
      const std::vector<Time>& row = oct[static_cast<std::size_t>(t)];
      double sum = 0.0;
      for (Time value : row) sum += static_cast<double>(value);
      schedule.rank[static_cast<std::size_t>(t)] =
          sum / static_cast<double>(num_procs);
    }
  } else {
    schedule.rank = upward_ranks(graph, topology, comm);
  }

  // Place tasks one by one, always the highest-rank *ready* task next
  // (ties toward the lower id).  For HEFT with positive durations this is
  // exactly the descending-rank_u order; going through a ready pool
  // additionally guarantees predecessors are placed first even when equal
  // ranks (zero durations, zero comm) would make a plain sort ambiguous.
  // The pool is a max-heap: `placed_after(a, b)` is true when b goes first.
  const std::vector<double>& rank = schedule.rank;
  const auto placed_after = [&rank](TaskId a, TaskId b) {
    const double ra = rank[static_cast<std::size_t>(a)];
    const double rb = rank[static_cast<std::size_t>(b)];
    return ra != rb ? ra < rb : a > b;
  };
  std::vector<int> remaining_preds(static_cast<std::size_t>(num_tasks), 0);
  std::vector<TaskId> ready;
  for (TaskId t = 0; t < num_tasks; ++t) {
    remaining_preds[static_cast<std::size_t>(t)] = graph.in_degree(t);
    if (graph.in_degree(t) == 0) ready.push_back(t);
  }
  std::make_heap(ready.begin(), ready.end(), placed_after);

  std::vector<ProcTimeline> timelines(static_cast<std::size_t>(num_procs));
  std::vector<Time> est(static_cast<std::size_t>(num_procs), 0);
  for (int placed_count = 0; placed_count < num_tasks; ++placed_count) {
    require(!ready.empty(), "heft_schedule: no ready task (cycle?)");
    std::pop_heap(ready.begin(), ready.end(), placed_after);
    const TaskId task = ready.back();
    ready.pop_back();
    const Time duration = graph.duration(task);
    earliest_starts(graph, topology, comm, schedule.tasks, task, est);

    ProcId best_proc = kInvalidProc;
    Time best_start = 0;
    Time best_finish = kTimeInfinity;
    double best_key = std::numeric_limits<double>::infinity();
    for (ProcId p = 0; p < num_procs; ++p) {
      if (excluded != nullptr &&
          static_cast<std::size_t>(p) < excluded->size() &&
          (*excluded)[static_cast<std::size_t>(p)]) {
        continue;
      }
      const Time start =
          timelines[static_cast<std::size_t>(p)].earliest_slot(
              est[static_cast<std::size_t>(p)], duration);
      const Time finish = start + duration;
      const double key =
          variant == HeftVariant::Peft
              ? static_cast<double>(finish) +
                    static_cast<double>(
                        oct[static_cast<std::size_t>(task)]
                           [static_cast<std::size_t>(p)])
              : static_cast<double>(finish);
      // Ties: smaller finish (relevant for PEFT keys), then lower proc id.
      if (key < best_key ||
          (key == best_key && finish < best_finish)) {
        best_proc = p;
        best_start = start;
        best_finish = finish;
        best_key = key;
      }
    }

    ListScheduleEntry& entry = schedule.tasks[static_cast<std::size_t>(task)];
    entry.proc = best_proc;
    entry.start = best_start;
    entry.finish = best_finish;
    timelines[static_cast<std::size_t>(best_proc)].occupy(best_start,
                                                          best_finish);
    schedule.priority.push_back(task);
    schedule.makespan = std::max(schedule.makespan, best_finish);

    for (const EdgeRef& succ : graph.successors(task)) {
      if (--remaining_preds[static_cast<std::size_t>(succ.task)] == 0) {
        ready.push_back(succ.task);
        std::push_heap(ready.begin(), ready.end(), placed_after);
      }
    }
  }
  return schedule;
}

HeftScheduler::HeftScheduler(HeftVariant variant, FaultResponse on_fault)
    : variant_(variant), on_fault_(on_fault) {}

void HeftScheduler::rebuild_plan(const std::vector<char>* excluded) {
  plan_ = heft_schedule(*graph_, *topology_, *comm_, variant_, excluded);
  priority_pos_.assign(static_cast<std::size_t>(graph_->num_tasks()), 0);
  plan_proc_.resize(priority_pos_.size());
  for (std::size_t pos = 0; pos < plan_.priority.size(); ++pos) {
    const auto task = static_cast<std::size_t>(plan_.priority[pos]);
    priority_pos_[task] = static_cast<int>(pos);
    plan_proc_[task] = plan_.tasks[task].proc;
  }
}

void HeftScheduler::on_run_start(const TaskGraph& graph,
                                 const Topology& topology,
                                 const CommModel& comm) {
  graph_ = &graph;
  topology_ = &topology;
  comm_ = &comm;
  rebuild_plan(nullptr);
  initial_plan_makespan_ = plan_.makespan;
  dispatch_.begin_run(graph.num_tasks(), topology.num_procs());
  proc_down_.assign(static_cast<std::size_t>(topology.num_procs()), 0);
  last_down_.assign(proc_down_.size(), 0);
}

void HeftScheduler::on_epoch(sim::EpochContext& ctx) {
  // Dispatch ready tasks in plan priority order; each goes to its planned
  // processor as soon as that processor is idle.  Tasks whose processor is
  // busy (or already taken this epoch) simply wait for a later epoch.
  std::fill(proc_down_.begin(), proc_down_.end(), 0);
  for (ProcId p : ctx.down_procs()) {
    proc_down_[static_cast<std::size_t>(p)] = 1;
  }
  if (on_fault_ == FaultResponse::Replan && proc_down_ != last_down_) {
    // The down set changed: recompute the plan around the crashed
    // machines.  Finished tasks never re-dispatch, so replanning the
    // whole graph only redirects the tasks still to come.
    last_down_ = proc_down_;
    rebuild_plan(ctx.down_procs().empty() ? nullptr : &proc_down_);
    dispatch_.reindex();
  }
  // Under Repin, a task whose planned machine crashed takes the first
  // still-free idle processor instead of waiting out the repair.
  dispatch_.dispatch(ctx, priority_pos_, plan_proc_,
                     on_fault_ == FaultResponse::Repin);
}

std::string HeftScheduler::name() const {
  return variant_ == HeftVariant::Peft ? "PEFT" : "HEFT";
}

}  // namespace dagsched::sched
