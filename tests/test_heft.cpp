// HEFT / PEFT rank-u list scheduling: rank computation, insertion-based
// placement (a task must land in the earliest feasible gap), golden
// simulated makespans on the paper programs, and schedule validity across
// randomized graphs x topologies x communication parameters.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "schedule_checks.hpp"
#include "sched/heft.hpp"
#include "sim/engine.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

namespace dagsched {
namespace {

TaskGraph single_chain() {
  return gen::chain(4, us(std::int64_t{10}), us(std::int64_t{4}));
}

TEST(UpwardRanks, ChainRanksAreSuffixSums) {
  // Without communication the upward rank is the execution time to the
  // leaf, i.e. the task level n_i.
  const TaskGraph g = single_chain();
  const std::vector<double> rank =
      sched::upward_ranks(g, topo::line(2), CommModel::disabled());
  const std::vector<Time> levels = task_levels(g);
  ASSERT_EQ(rank.size(), levels.size());
  for (std::size_t t = 0; t < rank.size(); ++t) {
    EXPECT_DOUBLE_EQ(rank[t], static_cast<double>(levels[t]));
  }
}

TEST(UpwardRanks, CommRaisesRanksByMeanPairCost) {
  // Two tasks a -> b on a 2-proc line: the only ordered pair is at
  // distance 1 both ways, so cbar(w) = w + sigma exactly.
  TaskGraph g;
  const TaskId a = g.add_task("a", us(std::int64_t{10}));
  const TaskId b = g.add_task("b", us(std::int64_t{20}));
  g.add_edge(a, b, us(std::int64_t{4}));
  const CommModel comm = CommModel::paper_default();
  const std::vector<double> rank =
      sched::upward_ranks(g, topo::line(2), comm);
  EXPECT_DOUBLE_EQ(rank[static_cast<std::size_t>(b)],
                   static_cast<double>(us(std::int64_t{20})));
  EXPECT_DOUBLE_EQ(
      rank[static_cast<std::size_t>(a)],
      static_cast<double>(us(std::int64_t{10})) +
          static_cast<double>(us(std::int64_t{4}) + comm.sigma) +
          static_cast<double>(us(std::int64_t{20})));
  // Ranks decrease along edges (the priority order is topological).
  EXPECT_GT(rank[static_cast<std::size_t>(a)],
            rank[static_cast<std::size_t>(b)]);
}

TEST(OptimisticCostTable, ExitRowsZeroAndChainAccumulates) {
  TaskGraph g;
  const TaskId a = g.add_task("a", us(std::int64_t{10}));
  const TaskId b = g.add_task("b", us(std::int64_t{20}));
  g.add_edge(a, b, us(std::int64_t{4}));
  const CommModel comm = CommModel::paper_default();
  const auto oct = sched::optimistic_cost_table(g, topo::line(2), comm);
  ASSERT_EQ(oct.size(), 2u);
  // Exit task: all zero.
  EXPECT_EQ(oct[static_cast<std::size_t>(b)][0], 0);
  EXPECT_EQ(oct[static_cast<std::size_t>(b)][1], 0);
  // a on p: best successor choice is b on the same p (zero comm), cost =
  // duration(b).
  EXPECT_EQ(oct[static_cast<std::size_t>(a)][0], us(std::int64_t{20}));
  EXPECT_EQ(oct[static_cast<std::size_t>(a)][1], us(std::int64_t{20}));
}

TEST(HeftSchedule, HighRankChainDoesNotDisplaceIndependentWork) {
  // head (20us) -> tail (20us) plus an independent small (6us), no
  // communication, two processors.  Rank order head > tail > small: HEFT
  // places the chain on P0 ([0,20) and [20,40), ties break to the lower
  // processor id) and small, placed last, must still start at time zero
  // on the free processor rather than appending after the chain.
  TaskGraph g;
  const TaskId head = g.add_task("head", us(std::int64_t{20}));
  const TaskId tail = g.add_task("tail", us(std::int64_t{20}));
  g.add_edge(head, tail, 0);
  const TaskId small = g.add_task("small", us(std::int64_t{6}));
  const CommModel comm = CommModel::disabled();
  const Topology machine = topo::line(2);

  const sched::ListSchedule plan =
      sched::heft_schedule(g, machine, comm, sched::HeftVariant::Heft);
  const auto& entries = plan.tasks;
  EXPECT_EQ(entries[static_cast<std::size_t>(head)].start, 0);
  EXPECT_EQ(entries[static_cast<std::size_t>(tail)].start,
            us(std::int64_t{20}));
  EXPECT_EQ(entries[static_cast<std::size_t>(small)].start, 0);
}

TEST(HeftSchedule, ConsumerStaysLocalAndFillerBackfills) {
  // src (10us) --w=20us--> sink (10us) plus an independent filler (12us)
  // on a 2-processor line with paper communication.  sink's remote
  // arrival would be 10 + (20 + sigma) = 37us, so EFT placement keeps it
  // on src's processor at [10,20); filler, placed in between (rank 12us
  // < src's but > nothing pending on P1), fills the other processor from
  // time zero.
  TaskGraph g;
  const TaskId src = g.add_task("src", us(std::int64_t{10}));
  const TaskId sink = g.add_task("sink", us(std::int64_t{10}));
  g.add_edge(src, sink, us(std::int64_t{20}));
  const TaskId filler = g.add_task("filler", us(std::int64_t{12}));
  const CommModel comm = CommModel::paper_default();
  const Topology machine = topo::line(2);

  const sched::ListSchedule plan =
      sched::heft_schedule(g, machine, comm, sched::HeftVariant::Heft);
  const auto& e = plan.tasks;
  EXPECT_EQ(e[static_cast<std::size_t>(src)].proc,
            e[static_cast<std::size_t>(sink)].proc);
  EXPECT_EQ(e[static_cast<std::size_t>(sink)].start, us(std::int64_t{10}));
  // filler fills the other processor from time zero.
  EXPECT_NE(e[static_cast<std::size_t>(filler)].proc,
            e[static_cast<std::size_t>(src)].proc);
  EXPECT_EQ(e[static_cast<std::size_t>(filler)].start, 0);
}

/// Checks the offline plan's internal consistency: exactly one slot per
/// task, no overlap per processor, precedence + analytic comm respected,
/// and — the insertion-slot correctness property — no task could have
/// been placed earlier on its own processor.
void expect_plan_consistent(const TaskGraph& g, const Topology& machine,
                            const CommModel& comm,
                            const sched::ListSchedule& plan) {
  ASSERT_EQ(plan.tasks.size(), static_cast<std::size_t>(g.num_tasks()));
  ASSERT_EQ(plan.priority.size(), static_cast<std::size_t>(g.num_tasks()));

  // priority is a permutation that respects precedence.
  std::vector<int> pos(static_cast<std::size_t>(g.num_tasks()), -1);
  for (std::size_t i = 0; i < plan.priority.size(); ++i) {
    ASSERT_TRUE(g.is_valid_task(plan.priority[i]));
    ASSERT_EQ(pos[static_cast<std::size_t>(plan.priority[i])], -1);
    pos[static_cast<std::size_t>(plan.priority[i])] = static_cast<int>(i);
  }
  for (const Edge& edge : g.edges()) {
    EXPECT_LT(pos[static_cast<std::size_t>(edge.from)],
              pos[static_cast<std::size_t>(edge.to)])
        << "priority order violates precedence";
  }

  Time makespan = 0;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    const sched::ListScheduleEntry& entry =
        plan.tasks[static_cast<std::size_t>(t)];
    ASSERT_TRUE(machine.is_valid_proc(entry.proc));
    EXPECT_EQ(entry.finish - entry.start, g.duration(t));
    makespan = std::max(makespan, entry.finish);
    // Precedence + analytic message arrival.
    for (const EdgeRef& pred : g.predecessors(t)) {
      const sched::ListScheduleEntry& from =
          plan.tasks[static_cast<std::size_t>(pred.task)];
      const Time arrival =
          from.finish +
          comm.analytic_cost(pred.weight,
                             machine.distance(from.proc, entry.proc));
      EXPECT_GE(entry.start, arrival)
          << "task " << t << " starts before its input from " << pred.task;
    }
  }
  EXPECT_EQ(plan.makespan, makespan);

  // No overlap per processor, and earliest-feasible-gap correctness: a
  // task placed into a processor timeline must not fit strictly earlier
  // given its input-arrival bound and the tasks placed *before* it.
  for (ProcId p = 0; p < machine.num_procs(); ++p) {
    std::vector<TaskId> on_proc;
    for (TaskId t = 0; t < g.num_tasks(); ++t) {
      if (plan.tasks[static_cast<std::size_t>(t)].proc == p) {
        on_proc.push_back(t);
      }
    }
    std::sort(on_proc.begin(), on_proc.end(), [&plan](TaskId a, TaskId b) {
      return plan.tasks[static_cast<std::size_t>(a)].start <
             plan.tasks[static_cast<std::size_t>(b)].start;
    });
    for (std::size_t i = 1; i < on_proc.size(); ++i) {
      EXPECT_GE(plan.tasks[static_cast<std::size_t>(on_proc[i])].start,
                plan.tasks[static_cast<std::size_t>(on_proc[i - 1])].finish)
          << "overlap on processor " << p;
    }
  }

  for (std::size_t placed = 0; placed < plan.priority.size(); ++placed) {
    const TaskId t = plan.priority[placed];
    const sched::ListScheduleEntry& entry =
        plan.tasks[static_cast<std::size_t>(t)];
    // Input-arrival lower bound on this processor.
    Time est = 0;
    for (const EdgeRef& pred : g.predecessors(t)) {
      const sched::ListScheduleEntry& from =
          plan.tasks[static_cast<std::size_t>(pred.task)];
      est = std::max(
          est, from.finish +
                   comm.analytic_cost(
                       pred.weight,
                       machine.distance(from.proc, entry.proc)));
    }
    // Busy intervals of entry.proc among earlier-placed tasks only.
    std::vector<std::pair<Time, Time>> busy;
    for (std::size_t earlier = 0; earlier < placed; ++earlier) {
      const sched::ListScheduleEntry& other =
          plan.tasks[static_cast<std::size_t>(plan.priority[earlier])];
      if (other.proc == entry.proc) {
        busy.emplace_back(other.start, other.finish);
      }
    }
    std::sort(busy.begin(), busy.end());
    Time earliest = est;
    for (const auto& [start, finish] : busy) {
      if (earliest + g.duration(t) <= start) break;
      earliest = std::max(earliest, finish);
    }
    EXPECT_EQ(entry.start, earliest)
        << "task " << t << " did not take the earliest feasible gap on "
        << "processor " << entry.proc;
  }
}

TEST(HeftSchedule, PlanConsistencyProperty) {
  Rng rng(20260727);
  for (int round = 0; round < 30; ++round) {
    gen::GnpDagOptions options;
    options.num_tasks = 8 + static_cast<int>(rng.uniform_index(28));
    options.edge_probability = 0.05 + 0.25 * rng.uniform01();
    options.seed = rng.next_u64();
    const TaskGraph g = gen::gnp_dag(options);

    const Topology machine = (round % 3 == 0)   ? topo::hypercube(3)
                             : (round % 3 == 1) ? topo::ring(5)
                                                : topo::mesh(2, 3);
    CommModel comm = CommModel::paper_default();
    comm.sigma = us(rng.uniform_int(0, 12));
    comm.tau = us(rng.uniform_int(0, 12));
    if (round % 4 == 0) comm = CommModel::disabled();

    for (const sched::HeftVariant variant :
         {sched::HeftVariant::Heft, sched::HeftVariant::Peft}) {
      const sched::ListSchedule plan =
          sched::heft_schedule(g, machine, comm, variant);
      expect_plan_consistent(g, machine, comm, plan);
    }
  }
}

/// The linear-scan planner heft_schedule replaced with a ready heap: the
/// same ranks, insertion slots and placement keys, but the next task is
/// the first highest-rank ready task of an O(n) scan over all task ids,
/// and every insertion scan starts at the processor's first busy slot.
sched::ListSchedule linear_scan_schedule(const TaskGraph& g,
                                         const Topology& machine,
                                         const CommModel& comm,
                                         sched::HeftVariant variant,
                                         const std::vector<char>* excluded) {
  const auto is_excluded = [&excluded](ProcId p) {
    return excluded != nullptr &&
           static_cast<std::size_t>(p) < excluded->size() &&
           (*excluded)[static_cast<std::size_t>(p)];
  };
  bool any_allowed = false;
  for (ProcId p = 0; p < machine.num_procs(); ++p) {
    any_allowed = any_allowed || !is_excluded(p);
  }
  if (!any_allowed) excluded = nullptr;

  const int n = g.num_tasks();
  const int procs = machine.num_procs();
  sched::ListSchedule plan;
  plan.tasks.assign(static_cast<std::size_t>(n), {});
  std::vector<std::vector<Time>> oct;
  if (variant == sched::HeftVariant::Peft) {
    oct = sched::optimistic_cost_table(g, machine, comm);
    for (const std::vector<Time>& row : oct) {
      double sum = 0.0;
      for (const Time value : row) sum += static_cast<double>(value);
      plan.rank.push_back(sum / static_cast<double>(procs));
    }
  } else {
    plan.rank = sched::upward_ranks(g, machine, comm);
  }

  std::vector<int> remaining(static_cast<std::size_t>(n));
  std::vector<char> ready(static_cast<std::size_t>(n), 0);
  for (TaskId t = 0; t < n; ++t) {
    remaining[static_cast<std::size_t>(t)] = g.in_degree(t);
    ready[static_cast<std::size_t>(t)] = g.in_degree(t) == 0;
  }
  // Busy intervals per processor, sorted by start.
  std::vector<std::vector<std::pair<Time, Time>>> busy(
      static_cast<std::size_t>(procs));
  for (int placed = 0; placed < n; ++placed) {
    TaskId task = kInvalidTask;
    for (TaskId t = 0; t < n; ++t) {
      if (ready[static_cast<std::size_t>(t)] &&
          (task == kInvalidTask || plan.rank[static_cast<std::size_t>(t)] >
                                       plan.rank[static_cast<std::size_t>(
                                           task)])) {
        task = t;
      }
    }
    ready[static_cast<std::size_t>(task)] = 0;

    sched::ListScheduleEntry best;
    double best_key = std::numeric_limits<double>::infinity();
    best.finish = kTimeInfinity;
    for (ProcId p = 0; p < procs; ++p) {
      if (is_excluded(p)) continue;
      Time est = 0;
      for (const EdgeRef& pred : g.predecessors(task)) {
        const sched::ListScheduleEntry& from =
            plan.tasks[static_cast<std::size_t>(pred.task)];
        est = std::max(est, from.finish + comm.analytic_cost(
                                              pred.weight,
                                              machine.distance(from.proc, p)));
      }
      Time gap_start = 0;
      Time start = -1;
      for (const auto& [slot_start, slot_finish] :
           busy[static_cast<std::size_t>(p)]) {
        const Time candidate = std::max(est, gap_start);
        if (candidate + g.duration(task) <= slot_start) {
          start = candidate;
          break;
        }
        gap_start = std::max(gap_start, slot_finish);
      }
      if (start < 0) start = std::max(est, gap_start);
      const Time finish = start + g.duration(task);
      double key = static_cast<double>(finish);
      if (variant == sched::HeftVariant::Peft) {
        key += static_cast<double>(
            oct[static_cast<std::size_t>(task)][static_cast<std::size_t>(p)]);
      }
      if (key < best_key || (key == best_key && finish < best.finish)) {
        best = {p, start, finish};
        best_key = key;
      }
    }
    plan.tasks[static_cast<std::size_t>(task)] = best;
    auto& timeline = busy[static_cast<std::size_t>(best.proc)];
    timeline.insert(std::lower_bound(timeline.begin(), timeline.end(),
                                     std::pair{best.start, best.finish},
                                     [](const auto& a, const auto& b) {
                                       return a.first < b.first;
                                     }),
                    {best.start, best.finish});
    plan.priority.push_back(task);
    plan.makespan = std::max(plan.makespan, best.finish);
    for (const EdgeRef& succ : g.successors(task)) {
      if (--remaining[static_cast<std::size_t>(succ.task)] == 0) {
        ready[static_cast<std::size_t>(succ.task)] = 1;
      }
    }
  }
  return plan;
}

void expect_same_plan(const sched::ListSchedule& got,
                      const sched::ListSchedule& want) {
  ASSERT_EQ(got.priority, want.priority);
  ASSERT_EQ(got.rank, want.rank);
  ASSERT_EQ(got.tasks.size(), want.tasks.size());
  for (std::size_t t = 0; t < want.tasks.size(); ++t) {
    EXPECT_EQ(got.tasks[t].proc, want.tasks[t].proc) << "task " << t;
    EXPECT_EQ(got.tasks[t].start, want.tasks[t].start) << "task " << t;
    EXPECT_EQ(got.tasks[t].finish, want.tasks[t].finish) << "task " << t;
  }
  EXPECT_EQ(got.makespan, want.makespan);
}

TEST(HeftSchedule, HeapPlannerMatchesLinearScanReference) {
  // Random graphs plus tie-heavy ones: zero durations or zero weights make
  // many ranks equal, where only the (rank desc, id asc) tie rule decides
  // the placement order.
  Rng rng(20261017);
  std::vector<TaskGraph> graphs;
  for (int round = 0; round < 12; ++round) {
    gen::GnpDagOptions options;
    options.num_tasks = 20 + static_cast<int>(rng.uniform_index(200));
    options.edge_probability = 4.0 / options.num_tasks;
    if (round % 3 == 1) options.max_weight = 0;
    if (round % 3 == 2) {
      options.min_duration = 0;
      options.max_duration = 0;
    }
    options.seed = rng.next_u64();
    graphs.push_back(gen::gnp_dag(options));
  }
  graphs.push_back(gen::independent(40, 0));
  graphs.push_back(gen::independent(40, us(std::int64_t{7})));
  graphs.push_back(gen::fork_join(3, 12, us(std::int64_t{5}),
                                  us(std::int64_t{5}), us(std::int64_t{5}),
                                  0));

  const Topology machine = topo::hypercube(3);
  const std::vector<char> none_excluded;
  const std::vector<char> some_excluded = {1, 0, 0, 1, 0, 1, 0, 0};
  const std::vector<char> all_excluded(8, 1);  // ignored by the planner
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    for (const CommModel& comm :
         {CommModel::paper_default(), CommModel::disabled()}) {
      for (const std::vector<char>* mask :
           {static_cast<const std::vector<char>*>(nullptr), &none_excluded,
            &some_excluded, &all_excluded}) {
        for (const sched::HeftVariant variant :
             {sched::HeftVariant::Heft, sched::HeftVariant::Peft}) {
          SCOPED_TRACE("graph " + std::to_string(i) +
                       (comm.enabled ? " comm " : " nocomm ") +
                       (variant == sched::HeftVariant::Peft ? "peft" : "heft"));
          expect_same_plan(
              sched::heft_schedule(graphs[i], machine, comm, variant, mask),
              linear_scan_schedule(graphs[i], machine, comm, variant, mask));
        }
      }
    }
  }
}

/// A random DAG whose durations and edge weights come from tiny sets with
/// zero in each: many zero-length slots, and many slots ending exactly
/// where a successor's inputs arrive.
TaskGraph zero_heavy_dag(int n, std::uint64_t seed) {
  Rng rng(seed);
  const Time durations[] = {0, 0, us(std::int64_t{5}), us(std::int64_t{10})};
  const Time weights[] = {0, 0, us(std::int64_t{5})};
  TaskGraph graph("zero-heavy");
  for (int t = 0; t < n; ++t) {
    graph.add_task("t" + std::to_string(t), durations[rng.uniform_index(4)]);
  }
  for (TaskId to = 1; to < n; ++to) {
    const int fan_in = static_cast<int>(rng.uniform_index(3));
    for (int k = 0; k < fan_in; ++k) {
      const auto from = static_cast<TaskId>(
          rng.uniform_index(static_cast<std::size_t>(to)));
      if (!graph.has_edge(from, to)) {
        graph.add_edge(from, to, weights[rng.uniform_index(3)]);
      }
    }
  }
  return graph;
}

TEST(HeftSchedule, InsertionSearchMatchesReferenceOnZeroLengthAndAlignedSlots) {
  // The planner skips each timeline's prefix of slots ending at or before
  // the task's earliest start.  The edge cases: zero-duration tasks (and
  // zero-length slots at exactly that start), zero-weight edges, and
  // gap-heavy timelines where many slots end exactly at the start.
  const Time d5 = us(std::int64_t{5});
  std::vector<TaskGraph> graphs;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    graphs.push_back(zero_heavy_dag(60 + 20 * static_cast<int>(seed), seed));
  }
  graphs.push_back(gen::fork_join(4, 20, 0, d5, 0, 0));
  graphs.push_back(gen::fork_join(3, 17, 0, 0, d5, 0));
  graphs.push_back(gen::out_tree(4, 3, 0, 0));
  graphs.push_back(gen::in_tree(4, 3, d5, 0));
  graphs.push_back(gen::chain(30, 0, 0));
  {
    gen::LayeredDagOptions options;
    options.layers = 6;
    options.min_duration = d5;
    options.max_duration = d5;
    options.max_weight = 0;
    options.seed = 3;
    graphs.push_back(gen::layered_dag(options));
  }

  const std::vector<char> some_excluded = {1, 0, 0, 1, 0, 1, 0, 0};
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    for (const Topology& machine : {topo::hypercube(3), topo::ring(3)}) {
      for (const CommModel& comm :
           {CommModel::paper_default(), CommModel::disabled()}) {
        for (const std::vector<char>* mask :
             {static_cast<const std::vector<char>*>(nullptr),
              &some_excluded}) {
          for (const sched::HeftVariant variant :
               {sched::HeftVariant::Heft, sched::HeftVariant::Peft}) {
            SCOPED_TRACE("graph " + std::to_string(i) + " on " +
                         machine.name() +
                         (comm.enabled ? " comm " : " nocomm ") +
                         (mask != nullptr ? "masked " : "") +
                         (variant == sched::HeftVariant::Peft ? "peft"
                                                              : "heft"));
            expect_same_plan(
                sched::heft_schedule(graphs[i], machine, comm, variant, mask),
                linear_scan_schedule(graphs[i], machine, comm, variant,
                                     mask));
          }
        }
      }
    }
  }
}

/// Tasks of `plan` that slid into a gap: placed before a slot that an
/// earlier-placed task already held on the same processor.
int gap_placements(const sched::ListSchedule& plan, int num_procs) {
  std::vector<Time> latest_finish(static_cast<std::size_t>(num_procs), 0);
  int count = 0;
  for (const TaskId task : plan.priority) {
    const sched::ListScheduleEntry& entry =
        plan.tasks[static_cast<std::size_t>(task)];
    Time& latest = latest_finish[static_cast<std::size_t>(entry.proc)];
    if (entry.start < latest) ++count;
    latest = std::max(latest, entry.finish);
  }
  return count;
}

TEST(HeftSchedule, GapSearchMatchesReferenceWhenCommDwarfsDurations) {
  // Wire times 20-100x the durations: a task's inputs arrive long after
  // its processor's last slot ends, which leaves wide gaps that later,
  // less-constrained tasks slide into — the max-gap tree's mid-timeline
  // inserts and rebuilds, and its descent past gaps too narrow to hold.
  std::vector<TaskGraph> graphs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    gen::GnpDagOptions options;
    options.num_tasks = 150 * static_cast<int>(seed);
    options.edge_probability = 3.0 / options.num_tasks;
    options.min_duration = us(std::int64_t{1});
    options.max_duration = us(std::int64_t{5});
    options.min_weight = us(std::int64_t{100});
    options.max_weight = us(std::int64_t{500});
    options.seed = seed;
    graphs.push_back(gen::gnp_dag(options));
  }
  {
    gen::LayeredDagOptions options;
    options.layers = 12;
    options.max_width = 24;
    options.min_duration = us(std::int64_t{1});
    options.max_duration = us(std::int64_t{3});
    options.min_weight = us(std::int64_t{50});
    options.max_weight = us(std::int64_t{300});
    options.seed = 9;
    graphs.push_back(gen::layered_dag(options));
  }

  const std::vector<char> some_excluded = {1, 0, 0, 1, 0, 1, 0, 0};
  const CommModel comm = CommModel::paper_default();
  int in_gaps = 0;
  int placed = 0;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    for (const Topology& machine : {topo::hypercube(3), topo::ring(5)}) {
      for (const std::vector<char>* mask :
           {static_cast<const std::vector<char>*>(nullptr), &some_excluded}) {
        for (const sched::HeftVariant variant :
             {sched::HeftVariant::Heft, sched::HeftVariant::Peft}) {
          SCOPED_TRACE("graph " + std::to_string(i) + " on " +
                       machine.name() + (mask != nullptr ? " masked " : " ") +
                       (variant == sched::HeftVariant::Peft ? "peft"
                                                            : "heft"));
          const sched::ListSchedule plan =
              sched::heft_schedule(graphs[i], machine, comm, variant, mask);
          expect_same_plan(plan, linear_scan_schedule(graphs[i], machine,
                                                      comm, variant, mask));
          in_gaps += gap_placements(plan, machine.num_procs());
          placed += graphs[i].num_tasks();
        }
      }
    }
  }
  // The instances must exercise the gap search, not only appends.
  RecordProperty("gap_placements", in_gaps);
  RecordProperty("placements", placed);
  EXPECT_GT(in_gaps, placed / 4) << in_gaps << " of " << placed;
}

TEST(HeftScheduler, SimulatedSchedulesAreValidOnRandomInstances) {
  Rng rng(42);
  for (int round = 0; round < 12; ++round) {
    gen::LayeredDagOptions options;
    options.layers = 3 + static_cast<int>(rng.uniform_index(4));
    options.seed = rng.next_u64();
    const TaskGraph g = gen::layered_dag(options);
    const Topology machine =
        (round % 2 == 0) ? topo::hypercube(3) : topo::ring(5);
    CommModel comm = CommModel::paper_default();
    comm.send_cpu = (round % 3 == 0)   ? SendCpu::PerMessage
                    : (round % 3 == 1) ? SendCpu::PerTaskOutput
                                       : SendCpu::Offloaded;
    for (const sched::HeftVariant variant :
         {sched::HeftVariant::Heft, sched::HeftVariant::Peft}) {
      sched::HeftScheduler policy(variant);
      const sim::SimResult result = sim::simulate(g, machine, comm, policy);
      EXPECT_TRUE(schedule_is_valid(g, machine, comm, result))
          << policy.name() << " round " << round;
      // The replay follows the plan's placement exactly.
      for (TaskId t = 0; t < g.num_tasks(); ++t) {
        EXPECT_EQ(result.placement[static_cast<std::size_t>(t)],
                  policy.plan().tasks[static_cast<std::size_t>(t)].proc);
      }
    }
  }
}

TEST(HeftScheduler, DeterministicAndReusableAcrossRuns) {
  const workloads::Workload w = workloads::by_name("GJ");
  const Topology machine = topo::hypercube(3);
  const CommModel comm = CommModel::paper_default();
  sched::HeftScheduler policy;
  const sim::SimResult a = sim::simulate(w.graph, machine, comm, policy);
  const sim::SimResult b = sim::simulate(w.graph, machine, comm, policy);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.placement, b.placement);
}

TEST(HeftScheduler, GoldenMakespansOnPaperPrograms) {
  // Golden simulated makespans of the offline plans replayed through the
  // discrete-event engine (paper hardware: hypercube(3), sigma 7 / tau 9,
  // per_task_output sends).  These lock both the plan construction and
  // the replay dispatch; an intentional algorithm change must update them
  // alongside a PERFORMANCE.md note.
  const Topology machine = topo::hypercube(3);
  const CommModel comm = CommModel::paper_default();
  struct Golden {
    const char* workload;
    sched::HeftVariant variant;
    Time makespan;
  };
  const Golden goldens[] = {
      {"NE", sched::HeftVariant::Heft, 296798},
      {"NE", sched::HeftVariant::Peft, 263323},
      {"GJ", sched::HeftVariant::Heft, 1922313},
      {"GJ", sched::HeftVariant::Peft, 2003813},
      {"FFT", sched::HeftVariant::Heft, 1169666},
      {"FFT", sched::HeftVariant::Peft, 1169666},
      {"MM", sched::HeftVariant::Heft, 1517993},
      {"MM", sched::HeftVariant::Peft, 1545176},
  };
  for (const Golden& golden : goldens) {
    const workloads::Workload w = workloads::by_name(golden.workload);
    sched::HeftScheduler policy(golden.variant);
    const sim::SimResult result =
        sim::simulate(w.graph, machine, comm, policy);
    EXPECT_EQ(result.makespan, golden.makespan)
        << golden.workload << "/" << policy.name();
    EXPECT_TRUE(schedule_is_valid(w.graph, machine, comm, result))
        << golden.workload << "/" << policy.name();
  }
}

TEST(HeftScheduler, BeatsOrMatchesHlfLevelRankOnCommFreeChain) {
  // Sanity: on a communication-free chain every policy is forced to the
  // sequential optimum.
  const TaskGraph g = single_chain();
  sched::HeftScheduler heft;
  const sim::SimResult result =
      sim::simulate(g, topo::line(3), CommModel::disabled(), heft);
  EXPECT_EQ(result.makespan, us(std::int64_t{40}));
}

}  // namespace
}  // namespace dagsched
