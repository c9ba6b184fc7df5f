// Dispatch equivalence: the rank-ordered policies of src/sched keep the
// ready pool in a per-run ReadyIndex fed from the engine's newly-ready
// delta and take only the k = min(|ready|, |idle|) tasks they can assign
// at each epoch (HLF, list-hlf and offline dagprio from one lane; pinned,
// repin and HEFT/PEFT from one lane per target processor through the
// shared PinnedDispatch), and ETF looks up per-run memoized start costs.
// This file keeps reference copies of the full-sort (and, for ETF,
// recompute-every-epoch) dispatch rules those policies implement and
// requires the same per-epoch assignment sequence, makespan and
// placement — on seeded random, fork-join and tie-heavy graphs, with no
// faults, with machine crashes, and with deadline-bearing arrivals; on
// every resume from a checkpoint; through HEFT/PEFT replans and repins;
// and for policy instances reused across graphs and after aborted runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "sched/dagprio.hpp"
#include "sched/etf.hpp"
#include "sched/fixed_list.hpp"
#include "sched/heft.hpp"
#include "sched/hlf.hpp"
#include "sched/pinned.hpp"
#include "sched/policy.hpp"
#include "sched/repin.hpp"
#include "sim/arrivals.hpp"
#include "sim/engine.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"

namespace dagsched {
namespace {

// ---------------------------------------------------------------------------
// Reference policies: each on_epoch sorts the whole ready set and walks it.

bool level_before(const std::vector<Time>& levels, TaskId a, TaskId b) {
  const Time la = levels[static_cast<std::size_t>(a)];
  const Time lb = levels[static_cast<std::size_t>(b)];
  if (la != lb) return la > lb;
  return a < b;
}

std::vector<TaskId> ready_sorted_by_level(const sim::EpochContext& ctx) {
  std::vector<TaskId> order(ctx.ready_tasks().begin(),
                            ctx.ready_tasks().end());
  const std::vector<Time>& levels = ctx.levels();
  std::stable_sort(order.begin(), order.end(), [&levels](TaskId a, TaskId b) {
    return level_before(levels, a, b);
  });
  return order;
}

/// Picks the idle processor with the least analytic incoming cost
/// (ties: the first one), the MinComm rule of HLF-mincomm and dagprio.
std::size_t min_comm_pick(const sim::EpochContext& ctx, TaskId task,
                          const std::vector<ProcId>& free) {
  std::size_t pick = 0;
  Time best = sched::incoming_comm_cost(ctx, task, free[0]);
  for (std::size_t j = 1; j < free.size(); ++j) {
    const Time cost = sched::incoming_comm_cost(ctx, task, free[j]);
    if (cost < best) {
      best = cost;
      pick = j;
    }
  }
  return pick;
}

class RefHlf : public sim::SchedulingPolicy {
 public:
  RefHlf(sched::HlfPlacement placement, std::uint64_t seed)
      : placement_(placement), seed_(seed), draw_state_(seed) {}

  void on_run_start(const TaskGraph&, const Topology&,
                    const CommModel&) override {
    draw_state_ = seed_;
  }

  void on_epoch(sim::EpochContext& ctx) override {
    const std::vector<TaskId> order = ready_sorted_by_level(ctx);
    std::vector<ProcId> free(ctx.idle_procs().begin(),
                             ctx.idle_procs().end());
    Rng rng(draw_state_);
    const std::size_t count = std::min(order.size(), free.size());
    for (std::size_t i = 0; i < count; ++i) {
      const TaskId task = order[i];
      std::size_t pick = 0;
      if (placement_ == sched::HlfPlacement::Random) {
        pick = rng.uniform_index(free.size());
      } else if (placement_ == sched::HlfPlacement::MinComm) {
        pick = min_comm_pick(ctx, task, free);
      }
      ctx.assign(task, free[pick]);
      free.erase(free.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    draw_state_ = rng.next_u64();
  }

  std::string name() const override { return "ref-hlf"; }

 private:
  sched::HlfPlacement placement_;
  std::uint64_t seed_;
  std::uint64_t draw_state_;
};

/// The HLF list over all tasks, built with a full stable sort.
std::vector<TaskId> ref_hlf_list(const TaskGraph& graph) {
  const std::vector<Time> levels = task_levels(graph);
  std::vector<TaskId> list(static_cast<std::size_t>(graph.num_tasks()));
  for (std::size_t t = 0; t < list.size(); ++t) {
    list[t] = static_cast<TaskId>(t);
  }
  std::stable_sort(list.begin(), list.end(), [&levels](TaskId a, TaskId b) {
    return level_before(levels, a, b);
  });
  return list;
}

class RefFixedList : public sim::SchedulingPolicy {
 public:
  explicit RefFixedList(const std::vector<TaskId>& list) {
    rank_.assign(list.size(), 0);
    for (std::size_t pos = 0; pos < list.size(); ++pos) {
      rank_[static_cast<std::size_t>(list[pos])] = static_cast<int>(pos);
    }
  }

  void on_epoch(sim::EpochContext& ctx) override {
    std::vector<TaskId> order(ctx.ready_tasks().begin(),
                              ctx.ready_tasks().end());
    std::sort(order.begin(), order.end(), [this](TaskId a, TaskId b) {
      return rank_[static_cast<std::size_t>(a)] <
             rank_[static_cast<std::size_t>(b)];
    });
    const std::span<const ProcId> idle = ctx.idle_procs();
    const std::size_t count = std::min(order.size(), idle.size());
    for (std::size_t i = 0; i < count; ++i) ctx.assign(order[i], idle[i]);
  }

  std::string name() const override { return "ref-fixed-list"; }

 private:
  std::vector<int> rank_;
};

/// The greedy walk behind pinned, repin and HEFT dispatch: ready tasks in
/// `before` order; each takes its target when idle and still free, and
/// with `repin` a task whose target is down takes the first free idle
/// processor.
void greedy_pinned_walk(sim::EpochContext& ctx,
                        const std::function<ProcId(TaskId)>& target,
                        const std::function<bool(TaskId, TaskId)>& before,
                        bool repin) {
  std::vector<TaskId> order(ctx.ready_tasks().begin(),
                            ctx.ready_tasks().end());
  std::sort(order.begin(), order.end(), before);
  const auto procs = static_cast<std::size_t>(ctx.topology().num_procs());
  std::vector<char> used(procs, 0);
  std::vector<char> idle(procs, 0);
  std::vector<char> down(procs, 0);
  for (const ProcId p : ctx.idle_procs()) idle[static_cast<std::size_t>(p)] = 1;
  for (const ProcId p : ctx.down_procs()) down[static_cast<std::size_t>(p)] = 1;
  for (const TaskId task : order) {
    const auto slot = static_cast<std::size_t>(target(task));
    if (idle[slot] && !used[slot]) {
      ctx.assign(task, static_cast<ProcId>(slot));
      used[slot] = 1;
    } else if (repin && down[slot]) {
      for (std::size_t q = 0; q < procs; ++q) {
        if (idle[q] && !used[q]) {
          ctx.assign(task, static_cast<ProcId>(q));
          used[q] = 1;
          break;
        }
      }
    }
  }
}

class RefPinned : public sim::SchedulingPolicy {
 public:
  RefPinned(std::vector<ProcId> mapping, bool repin)
      : mapping_(std::move(mapping)), repin_(repin) {}

  void on_epoch(sim::EpochContext& ctx) override {
    const std::vector<Time>& levels = ctx.levels();
    greedy_pinned_walk(
        ctx,
        [this](TaskId t) { return mapping_[static_cast<std::size_t>(t)]; },
        [&levels](TaskId a, TaskId b) { return level_before(levels, a, b); },
        repin_);
  }

  std::string name() const override { return "ref-pinned"; }

 private:
  std::vector<ProcId> mapping_;
  bool repin_;
};

/// HEFT/PEFT replay over the planner's plan (tests/test_heft.cpp checks the
/// planner itself against a linear-scan reference).
class RefHeft : public sim::SchedulingPolicy {
 public:
  RefHeft(sched::HeftVariant variant, sched::FaultResponse on_fault)
      : variant_(variant), on_fault_(on_fault) {}

  void on_run_start(const TaskGraph& graph, const Topology& topology,
                    const CommModel& comm) override {
    graph_ = &graph;
    topology_ = &topology;
    comm_ = &comm;
    replan(nullptr);
    last_down_.assign(static_cast<std::size_t>(topology.num_procs()), 0);
  }

  void on_epoch(sim::EpochContext& ctx) override {
    std::vector<char> down(last_down_.size(), 0);
    for (const ProcId p : ctx.down_procs()) {
      down[static_cast<std::size_t>(p)] = 1;
    }
    if (on_fault_ == sched::FaultResponse::Replan && down != last_down_) {
      last_down_ = down;
      replan(ctx.down_procs().empty() ? nullptr : &down);
    }
    greedy_pinned_walk(
        ctx,
        [this](TaskId t) {
          return plan_.tasks[static_cast<std::size_t>(t)].proc;
        },
        [this](TaskId a, TaskId b) {
          return pos_[static_cast<std::size_t>(a)] <
                 pos_[static_cast<std::size_t>(b)];
        },
        on_fault_ == sched::FaultResponse::Repin);
  }

  std::string name() const override { return "ref-heft"; }

 private:
  void replan(const std::vector<char>* excluded) {
    plan_ = sched::heft_schedule(*graph_, *topology_, *comm_, variant_,
                                 excluded);
    pos_.assign(plan_.priority.size(), 0);
    for (std::size_t i = 0; i < plan_.priority.size(); ++i) {
      pos_[static_cast<std::size_t>(plan_.priority[i])] = static_cast<int>(i);
    }
  }

  sched::HeftVariant variant_;
  sched::FaultResponse on_fault_;
  sched::ListSchedule plan_;
  std::vector<int> pos_;
  std::vector<char> last_down_;
  const TaskGraph* graph_ = nullptr;
  const Topology* topology_ = nullptr;
  const CommModel* comm_ = nullptr;
};

class RefDagPrio : public sim::SchedulingPolicy {
 public:
  RefDagPrio(double w_cp, double w_slack, double w_age)
      : w_cp_(w_cp), w_slack_(w_slack), w_age_(w_age) {}

  void on_epoch(sim::EpochContext& ctx) override {
    const sim::ArrivalPlan* plan = ctx.arrivals();
    const std::vector<Time>& levels = ctx.levels();
    const Time now = ctx.now();
    std::vector<TaskId> order(ctx.ready_tasks().begin(),
                              ctx.ready_tasks().end());
    std::vector<double> score(order.size(), 0.0);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const TaskId task = order[i];
      const Time level = levels[static_cast<std::size_t>(task)];
      double s = w_cp_ * to_us(level);
      if (plan != nullptr) {
        const int wf = plan->task_workflow[static_cast<std::size_t>(task)];
        s += w_age_ *
             to_us(now - plan->arrival[static_cast<std::size_t>(wf)]);
        const Time deadline = plan->deadline[static_cast<std::size_t>(wf)];
        if (deadline != kTimeInfinity) {
          s -= w_slack_ * to_us(deadline - now - level);
        }
      }
      score[i] = s;
    }
    std::vector<std::size_t> rank(order.size());
    for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = i;
    std::sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t b) {
      if (score[a] != score[b]) return score[a] > score[b];
      return order[a] < order[b];
    });
    std::vector<ProcId> free(ctx.idle_procs().begin(),
                             ctx.idle_procs().end());
    const std::size_t count = std::min(order.size(), free.size());
    for (std::size_t i = 0; i < count; ++i) {
      const TaskId task = order[rank[i]];
      const std::size_t pick = min_comm_pick(ctx, task, free);
      ctx.assign(task, free[pick]);
      free.erase(free.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }

  std::string name() const override { return "ref-dagprio"; }

 private:
  double w_cp_;
  double w_slack_;
  double w_age_;
};

/// ETF as it was before the start-cost memo: every epoch recomputes the
/// analytic incoming cost of every (ready task, idle processor) pair.
class RefEtf : public sim::SchedulingPolicy {
 public:
  void on_epoch(sim::EpochContext& ctx) override {
    std::vector<TaskId> tasks(ctx.ready_tasks().begin(),
                              ctx.ready_tasks().end());
    std::vector<ProcId> procs(ctx.idle_procs().begin(),
                              ctx.idle_procs().end());
    while (!tasks.empty() && !procs.empty()) {
      std::size_t best_task = 0;
      std::size_t best_proc = 0;
      Time best_ready = kTimeInfinity;
      Time best_level = -1;
      for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
        const Time level = ctx.levels()[static_cast<std::size_t>(tasks[ti])];
        for (std::size_t pi = 0; pi < procs.size(); ++pi) {
          const Time ready =
              sched::incoming_comm_cost(ctx, tasks[ti], procs[pi]);
          const bool better =
              ready < best_ready ||
              (ready == best_ready &&
               (level > best_level ||
                (level == best_level &&
                 (tasks[ti] < tasks[best_task] ||
                  (tasks[ti] == tasks[best_task] &&
                   procs[pi] < procs[best_proc])))));
          if (better) {
            best_task = ti;
            best_proc = pi;
            best_ready = ready;
            best_level = level;
          }
        }
      }
      ctx.assign(tasks[best_task], procs[best_proc]);
      tasks.erase(tasks.begin() + static_cast<std::ptrdiff_t>(best_task));
      procs.erase(procs.begin() + static_cast<std::ptrdiff_t>(best_proc));
    }
  }

  std::string name() const override { return "ref-etf"; }
};

// ---------------------------------------------------------------------------
// Instances and the comparison harness.

struct Instance {
  std::string name;
  TaskGraph graph;
  Topology topology;
  CommModel comm;
  std::optional<sim::FaultSpec> faults;
  std::optional<sim::ArrivalPlan> arrivals;
};

using Decision = std::tuple<int, TaskId, ProcId>;  // epoch, task, proc

class DecisionRecorder final : public sim::EpochObserver {
 public:
  void on_epoch(const sim::EpochView&) override {}
  void on_epoch_decided(int epoch_index,
                        std::span<const sim::Assignment> assignments) override {
    for (const sim::Assignment& a : assignments) {
      decisions.emplace_back(epoch_index, a.task, a.proc);
    }
  }
  std::vector<Decision> decisions;
};

/// Keeps a checkpoint of every `stride`-th epoch.
class CheckpointEvery final : public sim::EpochObserver {
 public:
  explicit CheckpointEvery(int stride) : stride_(stride) {}
  void on_epoch(const sim::EpochView& epoch) override {
    if (epoch.epoch_index() % stride_ == 0) {
      checkpoints.push_back(epoch.checkpoint());
    }
  }
  std::vector<sim::SimCheckpoint> checkpoints;

 private:
  int stride_;
};

struct Outcome {
  std::vector<Decision> decisions;
  sim::SimResult result;
};

Outcome run_policy(const Instance& inst, sim::SchedulingPolicy& policy) {
  sim::SimOptions options;
  options.record_trace = false;
  if (inst.faults) options.faults = &*inst.faults;
  if (inst.arrivals) options.arrivals = &*inst.arrivals;
  sim::ResumableEngine engine(inst.graph, inst.topology, inst.comm, policy,
                              options);
  DecisionRecorder recorder;
  Outcome outcome;
  outcome.result = engine.run(&recorder);
  outcome.decisions = std::move(recorder.decisions);
  return outcome;
}

/// A (reference, policy-under-test) pair built for one instance.
struct PolicyPair {
  std::string name;
  std::function<std::unique_ptr<sim::SchedulingPolicy>(const Instance&)>
      reference;
  std::function<std::unique_ptr<sim::SchedulingPolicy>(const Instance&)>
      subject;
};

/// A seeded random mapping: many ready tasks share each target, so the
/// per-processor winner scan and the repin path both see contention.
std::vector<ProcId> random_mapping(const Instance& inst) {
  Rng rng(static_cast<std::uint64_t>(inst.graph.num_tasks()) * 7919u + 3u);
  std::vector<ProcId> mapping(static_cast<std::size_t>(inst.graph.num_tasks()));
  for (ProcId& p : mapping) {
    p = static_cast<ProcId>(rng.uniform_index(
        static_cast<std::size_t>(inst.topology.num_procs())));
  }
  return mapping;
}

std::vector<PolicyPair> policy_pairs() {
  using sched::FaultResponse;
  using sched::HeftVariant;
  using sched::HlfPlacement;
  std::vector<PolicyPair> pairs;
  const auto add = [&pairs](std::string name, auto reference, auto subject) {
    pairs.push_back({std::move(name), reference, subject});
  };
  for (const auto& [label, placement] :
       {std::pair{"hlf", HlfPlacement::FirstIdle},
        std::pair{"hlf-random", HlfPlacement::Random},
        std::pair{"hlf-mincomm", HlfPlacement::MinComm}}) {
    add(label,
        [placement](const Instance&) {
          return std::make_unique<RefHlf>(placement, 5);
        },
        [placement](const Instance&) {
          return std::make_unique<sched::HlfScheduler>(placement, 5);
        });
  }
  add("list-hlf",
      [](const Instance& inst) {
        return std::make_unique<RefFixedList>(ref_hlf_list(inst.graph));
      },
      [](const Instance& inst) {
        return std::make_unique<sched::FixedListScheduler>(
            sched::hlf_priority_list(inst.graph));
      });
  add("pinned",
      [](const Instance& inst) {
        return std::make_unique<RefPinned>(random_mapping(inst), false);
      },
      [](const Instance& inst) {
        return std::make_unique<sched::PinnedScheduler>(random_mapping(inst));
      });
  add("repin",
      [](const Instance& inst) {
        return std::make_unique<RefPinned>(random_mapping(inst), true);
      },
      [](const Instance& inst) {
        return std::make_unique<sched::RepinScheduler>(random_mapping(inst));
      });
  for (const HeftVariant variant : {HeftVariant::Heft, HeftVariant::Peft}) {
    for (const auto& [label, response] :
         {std::pair{"wait", FaultResponse::Wait},
          std::pair{"repin", FaultResponse::Repin},
          std::pair{"replan", FaultResponse::Replan}}) {
      add(std::string(variant == HeftVariant::Heft ? "heft/" : "peft/") +
              label,
          [variant, response](const Instance&) {
            return std::make_unique<RefHeft>(variant, response);
          },
          [variant, response](const Instance&) {
            return std::make_unique<sched::HeftScheduler>(variant, response);
          });
    }
  }
  for (const auto& [label, w_cp] :
       {std::pair{"dagprio", 1.0}, std::pair{"dagprio-nocp", 0.0}}) {
    add(label,
        [w_cp](const Instance&) {
          return std::make_unique<RefDagPrio>(w_cp, 1.0, 0.1);
        },
        [w_cp](const Instance&) {
          return std::make_unique<sched::DagPrioScheduler>(w_cp, 1.0, 0.1);
        });
  }
  add("etf", [](const Instance&) { return std::make_unique<RefEtf>(); },
      [](const Instance&) { return std::make_unique<sched::EtfScheduler>(); });
  return pairs;
}

void expect_equivalent(const Instance& inst) {
  for (const PolicyPair& pair : policy_pairs()) {
    SCOPED_TRACE(inst.name + " / " + pair.name);
    const std::unique_ptr<sim::SchedulingPolicy> reference =
        pair.reference(inst);
    const std::unique_ptr<sim::SchedulingPolicy> subject = pair.subject(inst);
    const Outcome want = run_policy(inst, *reference);
    const Outcome got = run_policy(inst, *subject);
    ASSERT_EQ(got.decisions.size(), want.decisions.size());
    for (std::size_t i = 0; i < want.decisions.size(); ++i) {
      ASSERT_EQ(got.decisions[i], want.decisions[i]) << "decision " << i;
    }
    EXPECT_EQ(got.result.makespan, want.result.makespan);
    EXPECT_EQ(got.result.placement, want.result.placement);
    EXPECT_EQ(got.result.num_epochs, want.result.num_epochs);
    EXPECT_EQ(got.result.failed, want.result.failed);
    // A re-run of the same policy object must repeat itself (scratch
    // buffers and rank caches carry no decision state across runs).
    EXPECT_EQ(run_policy(inst, *subject).decisions, got.decisions);
  }
}

TaskGraph gnp(int n, std::uint64_t seed, Time min_duration, Time max_duration,
              Time max_weight) {
  gen::GnpDagOptions options;
  options.num_tasks = n;
  options.edge_probability = 8.0 / static_cast<double>(n - 1);
  options.min_duration = min_duration;
  options.max_duration = max_duration;
  options.max_weight = max_weight;
  options.seed = seed;
  return gen::gnp_dag(options);
}

/// The graph families every scenario runs: gnp at 100-2000 tasks, a
/// fork-join, and tie-heavy graphs (equal or zero durations and weights).
std::vector<std::pair<std::string, TaskGraph>> graph_families() {
  const Time d5 = us(std::int64_t{5});
  const Time d50 = us(std::int64_t{50});
  const Time w16 = us(std::int64_t{16});
  std::vector<std::pair<std::string, TaskGraph>> graphs;
  graphs.emplace_back("gnp100", gnp(100, 11, d5, d50, w16));
  graphs.emplace_back("gnp500", gnp(500, 12, d5, d50, w16));
  graphs.emplace_back("gnp2000", gnp(2000, 13, d5, d50, w16));
  graphs.emplace_back("fork_join",
                      gen::fork_join(6, 40, us(std::int64_t{10}),
                                     us(std::int64_t{20}), us(std::int64_t{10}),
                                     us(std::int64_t{4})));
  graphs.emplace_back("independent-zero", gen::independent(300, 0));
  graphs.emplace_back("gnp-equal-durations", gnp(400, 14, d5, d5, 0));
  graphs.emplace_back("gnp-zero", gnp(300, 15, 0, 0, 0));
  return graphs;
}

Instance make_instance(std::string name, TaskGraph graph) {
  return Instance{std::move(name), std::move(graph), topo::hypercube(3),
                  CommModel::paper_default(), std::nullopt, std::nullopt};
}

TEST(DispatchEquivalence, ZeroFaults) {
  for (auto& [name, graph] : graph_families()) {
    expect_equivalent(make_instance(name, std::move(graph)));
  }
}

TEST(DispatchEquivalence, ZeroFaultsOnOtherTopologies) {
  Instance ring = make_instance(
      "gnp500/ring5", gnp(500, 21, us(std::int64_t{5}), us(std::int64_t{50}),
                          us(std::int64_t{16})));
  ring.topology = topo::ring(5);
  expect_equivalent(ring);
  Instance free_comm = make_instance("fork_join/nocomm",
                                     gen::fork_join(4, 30, us(std::int64_t{5}),
                                                    us(std::int64_t{5}),
                                                    us(std::int64_t{5}), 0));
  free_comm.comm = CommModel::disabled();
  expect_equivalent(free_comm);
}

TEST(DispatchEquivalence, MachineCrashes) {
  sim::FaultSpec crashes;
  crashes.machine_mtbf = us(std::int64_t{250});
  crashes.machine_mttr = us(std::int64_t{120});
  crashes.seed = 17;
  for (auto& [name, graph] : graph_families()) {
    Instance inst = make_instance(name + "/crash", std::move(graph));
    inst.faults = crashes;
    expect_equivalent(inst);
  }
}

TEST(DispatchEquivalence, ArrivalsWithDeadlines) {
  for (const int tasks : {10, 60}) {
    sim::ArrivalSpec spec;
    spec.num_workflows = 12;
    spec.mean_gap = us(std::int64_t{150});
    spec.burst_prob = 0.4;
    spec.burst_mult = 6.0;
    spec.deadline_slack = 2.0;
    spec.duration_jitter = 0.2;
    spec.weight_max = 4.0;
    spec.seed = static_cast<std::uint64_t>(tasks);
    sim::ArrivalPlan plan;
    TaskGraph graph = sim::build_arrival_instance(
        spec,
        [tasks](int workflow, std::uint64_t graph_seed) {
          // Every third workflow is tie-heavy: equal durations, no comm.
          const Time d5 = us(std::int64_t{5});
          return workflow % 3 == 2
                     ? gnp(tasks, graph_seed, d5, d5, 0)
                     : gnp(tasks, graph_seed, d5, us(std::int64_t{50}),
                           us(std::int64_t{16}));
        },
        plan);
    Instance inst = make_instance("arrivals/" + std::to_string(tasks),
                                  std::move(graph));
    inst.arrivals = std::move(plan);
    expect_equivalent(inst);
  }
}

TEST(DispatchEquivalence, EtfResumeMatchesFullRun) {
  // ETF carries a per-run memo.  ResumableEngine re-invokes on_run_start
  // on every resume without replaying the earlier epochs, so the rows of
  // tasks already ready at the checkpoint must be refilled from its
  // placement; and on_run_start must drop every row of the previous run.
  sim::FaultSpec crashes;
  crashes.machine_mtbf = us(std::int64_t{250});
  crashes.machine_mttr = us(std::int64_t{120});
  crashes.seed = 17;
  for (const bool faulty : {false, true}) {
    Instance inst = make_instance(
        faulty ? "gnp500/crash" : "gnp500",
        gnp(500, 31, us(std::int64_t{5}), us(std::int64_t{50}),
            us(std::int64_t{16})));
    if (faulty) inst.faults = crashes;
    SCOPED_TRACE(inst.name);
    sim::SimOptions options;
    options.record_trace = false;
    if (inst.faults) options.faults = &*inst.faults;
    sched::EtfScheduler etf;
    sim::ResumableEngine engine(inst.graph, inst.topology, inst.comm, etf,
                                options);
    CheckpointEvery capture(7);
    const sim::SimResult full = engine.run(&capture);
    ASSERT_GT(capture.checkpoints.size(), 2u);
    for (const sim::SimCheckpoint& cp : capture.checkpoints) {
      const sim::SimResult resumed = engine.resume(cp);
      EXPECT_EQ(resumed.makespan, full.makespan)
          << "resume from epoch " << cp.epoch_index();
      EXPECT_EQ(resumed.placement, full.placement);
      EXPECT_EQ(resumed.num_epochs, full.num_epochs);
      EXPECT_EQ(resumed.num_task_restarts, full.num_task_restarts);
    }
  }
  // Reused on another graph of the same size, the policy must match a
  // fresh one: nothing memoized for the previous graph survives.
  const TaskGraph other = gnp(500, 32, us(std::int64_t{5}),
                              us(std::int64_t{50}), us(std::int64_t{16}));
  sched::EtfScheduler reused;
  sched::EtfScheduler fresh;
  const Topology machine = topo::hypercube(3);
  const CommModel comm = CommModel::paper_default();
  (void)sim::simulate(gnp(500, 31, us(std::int64_t{5}), us(std::int64_t{50}),
                          us(std::int64_t{16})),
                      machine, comm, reused);
  const sim::SimResult want = sim::simulate(other, machine, comm, fresh);
  const sim::SimResult got = sim::simulate(other, machine, comm, reused);
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.placement, want.placement);
}

/// Records every decision and keeps a checkpoint of every `stride`-th
/// epoch.
class RecordAndCheckpoint final : public sim::EpochObserver {
 public:
  explicit RecordAndCheckpoint(int stride) : stride_(stride) {}
  void on_epoch(const sim::EpochView& epoch) override {
    if (stride_ > 0 && epoch.epoch_index() % stride_ == 0) {
      checkpoints.push_back(epoch.checkpoint());
    }
  }
  void on_epoch_decided(int epoch_index,
                        std::span<const sim::Assignment> assignments) override {
    for (const sim::Assignment& a : assignments) {
      decisions.emplace_back(epoch_index, a.task, a.proc);
    }
  }
  std::vector<sim::SimCheckpoint> checkpoints;
  std::vector<Decision> decisions;

 private:
  int stride_;
};

sim::SimOptions options_for(const Instance& inst) {
  sim::SimOptions options;
  options.record_trace = false;
  if (inst.faults) options.faults = &*inst.faults;
  if (inst.arrivals) options.arrivals = &*inst.arrivals;
  return options;
}

sim::FaultSpec crash_spec() {
  sim::FaultSpec crashes;
  crashes.machine_mtbf = us(std::int64_t{250});
  crashes.machine_mttr = us(std::int64_t{120});
  crashes.seed = 17;
  return crashes;
}

TEST(DispatchEquivalence, EveryPolicyResumesLikeItsFullRun) {
  // Every indexed policy rebuilds its index from the first epoch's delta
  // after a resume: resumed from every 7th checkpoint, it must repeat the
  // full run's decisions from that epoch on — and the full run must match
  // the full-scan reference.
  for (const bool faulty : {false, true}) {
    Instance inst = make_instance(
        faulty ? "gnp500/crash" : "gnp500",
        gnp(500, 31, us(std::int64_t{5}), us(std::int64_t{50}),
            us(std::int64_t{16})));
    if (faulty) inst.faults = crash_spec();
    for (const PolicyPair& pair : policy_pairs()) {
      SCOPED_TRACE(inst.name + " / " + pair.name);
      const std::unique_ptr<sim::SchedulingPolicy> reference =
          pair.reference(inst);
      const std::unique_ptr<sim::SchedulingPolicy> subject =
          pair.subject(inst);
      const Outcome want = run_policy(inst, *reference);
      sim::ResumableEngine engine(inst.graph, inst.topology, inst.comm,
                                  *subject, options_for(inst));
      RecordAndCheckpoint full_run(7);
      const sim::SimResult full = engine.run(&full_run);
      ASSERT_EQ(full_run.decisions, want.decisions);
      ASSERT_GT(full_run.checkpoints.size(), 2u);
      for (const sim::SimCheckpoint& cp : full_run.checkpoints) {
        RecordAndCheckpoint resumed_run(0);
        const sim::SimResult resumed = engine.resume(cp, &resumed_run);
        const auto suffix = std::find_if(
            full_run.decisions.begin(), full_run.decisions.end(),
            [&cp](const Decision& d) {
              return std::get<0>(d) >= cp.epoch_index();
            });
        ASSERT_TRUE(std::equal(resumed_run.decisions.begin(),
                               resumed_run.decisions.end(), suffix,
                               full_run.decisions.end()))
            << "resume from epoch " << cp.epoch_index();
        EXPECT_EQ(resumed.makespan, full.makespan);
        EXPECT_EQ(resumed.placement, full.placement);
        EXPECT_EQ(resumed.num_task_restarts, full.num_task_restarts);
      }
    }
  }
}

TEST(DispatchEquivalence, FaultRepairPathsAreExercised) {
  // The crash instances of MachineCrashes must actually drive the repair
  // paths the index serves: repinned tasks merged from down processors'
  // lanes, and replans that re-file the ready set under a new plan.
  for (auto& [name, graph] : graph_families()) {
    if (name != "gnp500" && name != "gnp2000") continue;
    Instance inst = make_instance(name + "/crash", std::move(graph));
    inst.faults = crash_spec();
    SCOPED_TRACE(inst.name);
    for (const sched::HeftVariant variant :
         {sched::HeftVariant::Heft, sched::HeftVariant::Peft}) {
      sched::HeftScheduler repin(variant, sched::FaultResponse::Repin);
      const Outcome repinned_run = run_policy(inst, repin);
      int repinned = 0;
      for (const auto& [epoch, task, proc] : repinned_run.decisions) {
        if (repin.plan().tasks[static_cast<std::size_t>(task)].proc != proc) {
          ++repinned;
        }
      }
      EXPECT_GT(repinned, 0) << "no HEFT/PEFT repin moved a task";

      sched::HeftScheduler replan(variant, sched::FaultResponse::Replan);
      (void)run_policy(inst, replan);
      const sched::ListSchedule initial =
          sched::heft_schedule(inst.graph, inst.topology, inst.comm, variant);
      int moved = 0;
      for (std::size_t t = 0; t < initial.tasks.size(); ++t) {
        if (replan.plan().tasks[t].proc != initial.tasks[t].proc) ++moved;
      }
      EXPECT_GT(moved, 0) << "no replan changed the plan";
    }
    const std::vector<ProcId> mapping = random_mapping(inst);
    sched::RepinScheduler repin(mapping);
    int repinned = 0;
    for (const auto& [epoch, task, proc] : run_policy(inst, repin).decisions) {
      if (mapping[static_cast<std::size_t>(task)] != proc) ++repinned;
    }
    EXPECT_GT(repinned, 0) << "no repin moved a task";
  }
}

TEST(DispatchEquivalence, PoliciesReusedAcrossGraphsAndAbortedRuns) {
  // A policy instance carries its index from run to run; on_run_start must
  // drop it.  Each subject first runs another graph (a different size,
  // with crashes), then a run aborted mid-way with tasks still indexed,
  // and must then decide exactly like the reference on the target.
  Instance first = make_instance(
      "gnp700/crash", gnp(700, 41, us(std::int64_t{5}), us(std::int64_t{50}),
                          us(std::int64_t{16})));
  first.faults = crash_spec();
  const Instance target = make_instance(
      "gnp300", gnp(300, 42, us(std::int64_t{5}), us(std::int64_t{50}),
                    us(std::int64_t{16})));
  for (const PolicyPair& pair : policy_pairs()) {
    SCOPED_TRACE(pair.name);
    const std::unique_ptr<sim::SchedulingPolicy> reference =
        pair.reference(target);
    const Outcome want = run_policy(target, *reference);
    const std::unique_ptr<sim::SchedulingPolicy> subject =
        pair.subject(target);
    // Mappings and priority lists are per graph; the other policies are
    // built the same for any instance, so they can run `first` too.
    const bool per_graph = pair.name == "pinned" || pair.name == "repin" ||
                           pair.name == "list-hlf";
    if (!per_graph) (void)run_policy(first, *subject);
    sim::SimOptions aborted = options_for(target);
    aborted.max_events = 400;
    sim::ResumableEngine engine(target.graph, target.topology, target.comm,
                                *subject, aborted);
    EXPECT_THROW((void)engine.run(), sim::SimulationError);
    EXPECT_EQ(run_policy(target, *subject).decisions, want.decisions);
  }
  // Pinned replays reuse one scheduler across mappings (set_mapping).
  sched::PinnedScheduler pinned(random_mapping(first));
  (void)run_policy(first, pinned);
  pinned.set_mapping(random_mapping(target));
  RefPinned ref_pinned(random_mapping(target), false);
  EXPECT_EQ(run_policy(target, pinned).decisions,
            run_policy(target, ref_pinned).decisions);
}

}  // namespace
}  // namespace dagsched
