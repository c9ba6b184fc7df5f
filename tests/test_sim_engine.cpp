// Execution engine: hand-computed timings for every communication
// mechanism — send/receive overheads, store-and-forward routing, link
// contention, and preemption of running tasks by incoming messages.
//
// All scenarios pin tasks to processors (PinnedScheduler) so the expected
// makespans can be derived on paper.  Paper constants: sigma = 7us,
// tau = 9us, one 40-bit variable = 4us of wire time per hop.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>

#include "graph/generators.hpp"
#include "sched/pinned.hpp"
#include "sim/arrivals.hpp"
#include "sim/engine.hpp"
#include "sim/validate.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"

namespace dagsched {
namespace {

sim::SimResult run_pinned(const TaskGraph& graph, const Topology& topology,
                          const CommModel& comm,
                          std::vector<ProcId> mapping) {
  sched::PinnedScheduler policy(std::move(mapping));
  sim::SimResult result = sim::simulate(graph, topology, comm, policy);
  const auto violations = sim::validate_run(graph, topology, comm, result);
  EXPECT_TRUE(violations.empty()) << violations.front();
  return result;
}

TEST(Engine, SingleTask) {
  TaskGraph g;
  g.add_task("t", us(std::int64_t{25}));
  const auto result =
      run_pinned(g, topo::line(1), CommModel::paper_default(), {0});
  EXPECT_EQ(result.makespan, us(std::int64_t{25}));
  EXPECT_EQ(result.num_messages, 0);
  EXPECT_EQ(result.num_epochs, 1);
}

TEST(Engine, ChainOnSameProcessorHasNoCommCost) {
  TaskGraph g;
  const TaskId a = g.add_task("a", us(std::int64_t{10}));
  const TaskId b = g.add_task("b", us(std::int64_t{10}));
  g.add_edge(a, b, us(std::int64_t{4}));
  const auto result =
      run_pinned(g, topo::line(2), CommModel::paper_default(), {0, 0});
  EXPECT_EQ(result.makespan, us(std::int64_t{20}));
  EXPECT_EQ(result.num_messages, 0);
}

TEST(Engine, NeighborMessagePaysSigmaWireTau) {
  TaskGraph g;
  const TaskId a = g.add_task("a", us(std::int64_t{10}));
  const TaskId b = g.add_task("b", us(std::int64_t{10}));
  g.add_edge(a, b, us(std::int64_t{4}));
  // a on P0, b on P1: 10 + sigma(7) + wire(4) + tau(9) + 10 = 40us.
  const auto result =
      run_pinned(g, topo::line(2), CommModel::paper_default(), {0, 1});
  EXPECT_EQ(result.makespan, us(std::int64_t{40}));
  EXPECT_EQ(result.num_messages, 1);
  ASSERT_EQ(result.trace.messages.size(), 1u);
  const sim::MessageRecord& msg = result.trace.messages.front();
  EXPECT_EQ(msg.launched, us(std::int64_t{10}));
  EXPECT_EQ(msg.delivered, us(std::int64_t{30}));
  EXPECT_EQ(msg.hops, 1);
}

TEST(Engine, OffloadedSendSkipsSigma) {
  TaskGraph g;
  const TaskId a = g.add_task("a", us(std::int64_t{10}));
  const TaskId b = g.add_task("b", us(std::int64_t{10}));
  g.add_edge(a, b, us(std::int64_t{4}));
  CommModel comm = CommModel::paper_default();
  comm.send_cpu = SendCpu::Offloaded;
  // 10 + wire(4) + tau(9) + 10 = 33us.
  const auto result = run_pinned(g, topo::line(2), comm, {0, 1});
  EXPECT_EQ(result.makespan, us(std::int64_t{33}));
}

TEST(Engine, DisabledCommIsFree) {
  TaskGraph g;
  const TaskId a = g.add_task("a", us(std::int64_t{10}));
  const TaskId b = g.add_task("b", us(std::int64_t{10}));
  g.add_edge(a, b, us(std::int64_t{400}));
  const auto result =
      run_pinned(g, topo::line(2), CommModel::disabled(), {0, 1});
  EXPECT_EQ(result.makespan, us(std::int64_t{20}));
  EXPECT_EQ(result.num_messages, 0);
}

TEST(Engine, TwoHopRoutePaysIntermediateTau) {
  TaskGraph g;
  const TaskId a = g.add_task("a", us(std::int64_t{10}));
  const TaskId b = g.add_task("b", us(std::int64_t{10}));
  g.add_edge(a, b, us(std::int64_t{4}));
  // P0 -> P2 on a line: 10 + sigma(7) + wire(4) + route-tau(9) + wire(4)
  // + recv-tau(9) + 10 = 53us (store-and-forward).
  const auto result =
      run_pinned(g, topo::line(3), CommModel::paper_default(), {0, 2});
  EXPECT_EQ(result.makespan, us(std::int64_t{53}));
  ASSERT_EQ(result.trace.transfers.size(), 2u);
  EXPECT_EQ(result.trace.transfers[0].to, 1);
  EXPECT_EQ(result.trace.transfers[1].from, 1);
}

TEST(Engine, RoutingPreemptsIntermediateTask) {
  // P1 executes a long independent task while routing a's message; the
  // routing tau extends that task by 9us.
  TaskGraph g;
  const TaskId a = g.add_task("a", us(std::int64_t{10}));
  const TaskId b = g.add_task("b", us(std::int64_t{10}));
  const TaskId filler = g.add_task("filler", us(std::int64_t{100}));
  g.add_edge(a, b, us(std::int64_t{4}));
  const auto result = run_pinned(g, topo::line(3),
                                 CommModel::paper_default(), {0, 2, 1});
  // filler starts at 0 on P1; a's message reaches P1 at 10+7+4 = 21 and
  // preempts it for tau = 9us -> filler ends at 109.
  const sim::TaskRecord& filler_rec = result.trace.task_record(filler);
  EXPECT_EQ(filler_rec.finished, us(std::int64_t{109}));
  // The filler must have been split into two segments.
  int filler_segments = 0;
  for (const sim::TaskSegment& seg : result.trace.task_segments) {
    if (seg.task == filler) ++filler_segments;
  }
  EXPECT_EQ(filler_segments, 2);
  // b: starts after 21 + 9 (route) + 4 (wire) + 9 (recv) = 43, ends 53.
  EXPECT_EQ(result.trace.task_record(b).finished, us(std::int64_t{53}));
}

TEST(Engine, SharedChannelSerializesTransfers) {
  // One producer, two remote consumers on a shared bus: the second
  // transfer waits for the first.
  TaskGraph g;
  const TaskId a = g.add_task("a", us(std::int64_t{10}));
  const TaskId c = g.add_task("c", us(std::int64_t{10}));
  const TaskId d = g.add_task("d", us(std::int64_t{10}));
  g.add_edge(a, c, us(std::int64_t{4}));
  g.add_edge(a, d, us(std::int64_t{4}));
  const auto result = run_pinned(g, topo::shared_bus(3),
                                 CommModel::paper_default(), {0, 1, 2});
  // sigma once (PerTaskOutput): 10-17.  Transfers serialized on the single
  // channel: c's 17-21, d's 21-25.  Receives in parallel: c 21-30 (runs
  // 30-40), d 25-34 (runs 34-44).
  EXPECT_EQ(result.trace.task_record(c).started, us(std::int64_t{30}));
  EXPECT_EQ(result.trace.task_record(d).started, us(std::int64_t{34}));
  EXPECT_EQ(result.makespan, us(std::int64_t{44}));
}

TEST(Engine, CrossbarBusTransfersInParallel) {
  TaskGraph g;
  const TaskId a = g.add_task("a", us(std::int64_t{10}));
  const TaskId c = g.add_task("c", us(std::int64_t{10}));
  const TaskId d = g.add_task("d", us(std::int64_t{10}));
  g.add_edge(a, c, us(std::int64_t{4}));
  g.add_edge(a, d, us(std::int64_t{4}));
  const auto result =
      run_pinned(g, topo::bus(3), CommModel::paper_default(), {0, 1, 2});
  // Distinct channels: both transfers 17-21, both receives 21-30, both
  // tasks 30-40.
  EXPECT_EQ(result.trace.task_record(c).started, us(std::int64_t{30}));
  EXPECT_EQ(result.trace.task_record(d).started, us(std::int64_t{30}));
  EXPECT_EQ(result.makespan, us(std::int64_t{40}));
}

TEST(Engine, PerMessageSigmaSerializesOnTheSender) {
  TaskGraph g;
  const TaskId a = g.add_task("a", us(std::int64_t{10}));
  const TaskId c = g.add_task("c", us(std::int64_t{10}));
  const TaskId d = g.add_task("d", us(std::int64_t{10}));
  g.add_edge(a, c, us(std::int64_t{4}));
  g.add_edge(a, d, us(std::int64_t{4}));
  CommModel comm = CommModel::paper_default();
  comm.send_cpu = SendCpu::PerMessage;
  const auto result = run_pinned(g, topo::bus(3), comm, {0, 1, 2});
  // Two sigma jobs on P0: 10-17 and 17-24.  c: 17+4+9 = 30 start;
  // d: 24+4+9 = 37 start, ends 47.
  EXPECT_EQ(result.trace.task_record(c).started, us(std::int64_t{30}));
  EXPECT_EQ(result.trace.task_record(d).started, us(std::int64_t{37}));
  EXPECT_EQ(result.makespan, us(std::int64_t{47}));
}

TEST(Engine, ReceiverPreemptionExtendsRunningTask) {
  // P1 starts a long task, then receives a message for its next task.
  TaskGraph g;
  const TaskId a = g.add_task("a", us(std::int64_t{10}));
  const TaskId big = g.add_task("big", us(std::int64_t{50}));
  const TaskId b = g.add_task("b", us(std::int64_t{10}));
  g.add_edge(a, b, us(std::int64_t{4}));
  // big and b on P1; a on P0.  big is ready at 0 and runs on P1; b becomes
  // ready at 10 but P1 is busy (reserved tasks only go to idle
  // processors), so b is assigned at big's completion.
  const auto result =
      run_pinned(g, topo::line(2), CommModel::paper_default(), {0, 1, 1});
  // big: 0-50 on P1 (a's message only exists once b is assigned, i.e. at
  // t=50; no preemption of big).  Message: sigma 50-57, wire 57-61,
  // recv 61-70, b 70-80.
  EXPECT_EQ(result.trace.task_record(big).finished, us(std::int64_t{50}));
  EXPECT_EQ(result.trace.task_record(b).started, us(std::int64_t{70}));
  EXPECT_EQ(result.makespan, us(std::int64_t{80}));
}

TEST(Engine, ZeroWeightMessageStillPaysOverheads) {
  TaskGraph g;
  const TaskId a = g.add_task("a", us(std::int64_t{10}));
  const TaskId b = g.add_task("b", us(std::int64_t{10}));
  g.add_edge(a, b, 0);
  const auto result =
      run_pinned(g, topo::line(2), CommModel::paper_default(), {0, 1});
  // 10 + 7 + 0 + 9 + 10 = 36us.
  EXPECT_EQ(result.makespan, us(std::int64_t{36}));
}

TEST(Engine, ZeroDurationTasksComplete) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 0);
  const TaskId b = g.add_task("b", 0);
  g.add_edge(a, b, 0);
  const auto result =
      run_pinned(g, topo::line(1), CommModel::disabled(), {0, 0});
  EXPECT_EQ(result.makespan, 0);
  EXPECT_EQ(result.trace.task_record(b).finished, 0);
}

TEST(Engine, ParallelIndependentTasks) {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    g.add_task("t" + std::to_string(i), us(std::int64_t{10}));
  }
  const auto result = run_pinned(g, topo::complete(4),
                                 CommModel::paper_default(), {0, 1, 2, 3});
  EXPECT_EQ(result.makespan, us(std::int64_t{10}));
  EXPECT_DOUBLE_EQ(result.speedup(g.total_work()), 4.0);
  EXPECT_DOUBLE_EQ(result.utilization(), 1.0);
}

TEST(Engine, StallsWithDiagnosticWhenPolicyAssignsNothing) {
  class NullPolicy : public sim::SchedulingPolicy {
   public:
    void on_epoch(sim::EpochContext&) override {}
    std::string name() const override { return "null"; }
  };
  TaskGraph g;
  g.add_task("t", 10);
  NullPolicy policy;
  EXPECT_THROW(
      sim::simulate(g, topo::line(1), CommModel::disabled(), policy),
      sim::SimulationError);
}

TEST(Engine, EventBudgetGuard) {
  TaskGraph g;
  const TaskId a = g.add_task("a", us(std::int64_t{10}));
  const TaskId b = g.add_task("b", us(std::int64_t{10}));
  g.add_edge(a, b, us(std::int64_t{4}));
  sched::PinnedScheduler policy({0, 1});
  sim::SimOptions options;
  options.max_events = 2;
  // Engine arguments are borrowed: keep them alive across run().
  const Topology machine = topo::line(2);
  const CommModel comm = CommModel::paper_default();
  sim::ExecutionEngine engine(g, machine, comm, policy, options);
  EXPECT_THROW(engine.run(), sim::SimulationError);
}

TEST(Engine, TraceOffStillProducesResults) {
  TaskGraph g;
  const TaskId a = g.add_task("a", us(std::int64_t{10}));
  const TaskId b = g.add_task("b", us(std::int64_t{10}));
  g.add_edge(a, b, us(std::int64_t{4}));
  sched::PinnedScheduler policy({0, 1});
  sim::SimOptions options;
  options.record_trace = false;
  const Topology machine = topo::line(2);
  const CommModel comm = CommModel::paper_default();
  sim::ExecutionEngine engine(g, machine, comm, policy, options);
  const auto result = engine.run();
  EXPECT_EQ(result.makespan, us(std::int64_t{40}));
  // With tracing off the result carries no trace at all (the oracle's
  // replay loop depends on this staying allocation-free); the aggregate
  // statistics are still filled.
  EXPECT_TRUE(result.trace.task_segments.empty());
  EXPECT_TRUE(result.trace.tasks.empty());
  EXPECT_TRUE(result.trace.epochs.empty());
  EXPECT_EQ(result.num_epochs, 2);
  EXPECT_EQ(result.placement, (std::vector<ProcId>{0, 1}));
}

TEST(Engine, EpochsOnlyAtIdleInstants) {
  // Three independent tasks, one processor: epochs at 0, 10, 20.
  TaskGraph g;
  for (int i = 0; i < 3; ++i) {
    g.add_task("t" + std::to_string(i), us(std::int64_t{10}));
  }
  const auto result =
      run_pinned(g, topo::line(1), CommModel::disabled(), {0, 0, 0});
  ASSERT_EQ(result.trace.epochs.size(), 3u);
  EXPECT_EQ(result.trace.epochs[0].when, 0);
  EXPECT_EQ(result.trace.epochs[1].when, us(std::int64_t{10}));
  EXPECT_EQ(result.trace.epochs[2].when, us(std::int64_t{20}));
  EXPECT_EQ(result.trace.epochs[0].ready_tasks, 3);
  EXPECT_EQ(result.trace.epochs[1].ready_tasks, 2);
}

// ---------------------------------------------------------------------------
// The newly-ready delta (EpochContext::newly_ready): at every epoch the
// previous epoch's ready set, minus the tasks assigned there, plus the
// delta must be exactly the ready set, with no task twice; the first epoch
// of a run or a resume delivers the whole pool.

/// Checks the delta contract at every epoch, then assigns a seeded random
/// selection (a pure function of the epoch, so resumes replay it).
class DeltaChecker : public sim::SchedulingPolicy {
 public:
  void on_run_start(const TaskGraph& graph, const Topology&,
                    const CommModel&) override {
    first_ = true;
    expected_.clear();
    assigned_.assign(static_cast<std::size_t>(graph.num_tasks()), 0);
    delivered = 0;
    returned = 0;
    epochs = 0;
  }

  void on_epoch(sim::EpochContext& ctx) override {
    ++epochs;
    const std::vector<TaskId> ready(ctx.ready_tasks().begin(),
                                    ctx.ready_tasks().end());
    std::vector<TaskId> delta(ctx.newly_ready().begin(),
                              ctx.newly_ready().end());
    std::sort(delta.begin(), delta.end());
    EXPECT_EQ(std::adjacent_find(delta.begin(), delta.end()), delta.end())
        << "a task twice in the delta at epoch " << ctx.epoch_index();
    if (first_) {
      EXPECT_EQ(delta, ready) << "first epoch must deliver the whole pool";
      first_ = false;
    } else {
      std::vector<TaskId> overlap;
      std::set_intersection(expected_.begin(), expected_.end(), delta.begin(),
                            delta.end(), std::back_inserter(overlap));
      EXPECT_TRUE(overlap.empty())
          << "delta repeats a task still ready at epoch "
          << ctx.epoch_index();
      std::vector<TaskId> merged;
      std::set_union(expected_.begin(), expected_.end(), delta.begin(),
                     delta.end(), std::back_inserter(merged));
      EXPECT_EQ(merged, ready) << "at epoch " << ctx.epoch_index();
    }
    delivered += static_cast<int>(delta.size());
    for (const TaskId task : delta) {
      if (assigned_[static_cast<std::size_t>(task)]) ++returned;
    }

    std::vector<TaskId> pick = ready;
    std::vector<ProcId> procs(ctx.idle_procs().begin(),
                              ctx.idle_procs().end());
    Rng rng = Rng::stream(29, static_cast<std::uint64_t>(ctx.epoch_index()));
    rng.shuffle(pick);
    pick.resize(std::min(pick.size(), procs.size()));
    for (std::size_t i = 0; i < pick.size(); ++i) {
      ctx.assign(pick[i], procs[i]);
      assigned_[static_cast<std::size_t>(pick[i])] = 1;
    }
    std::sort(pick.begin(), pick.end());
    expected_.clear();
    std::set_difference(ready.begin(), ready.end(), pick.begin(), pick.end(),
                        std::back_inserter(expected_));
  }

  std::string name() const override { return "delta-checker"; }

  int delivered = 0;  ///< delta entries since on_run_start
  int returned = 0;   ///< of which tasks this run had assigned before
  int epochs = 0;

 private:
  bool first_ = true;
  std::vector<TaskId> expected_;  ///< last ready set minus assignments
  std::vector<char> assigned_;
};

/// Keeps a checkpoint of every `stride`-th epoch.
class EveryNthCheckpoint final : public sim::EpochObserver {
 public:
  explicit EveryNthCheckpoint(int stride) : stride_(stride) {}
  void on_epoch(const sim::EpochView& epoch) override {
    if (epoch.epoch_index() % stride_ == 0) {
      checkpoints.push_back(epoch.checkpoint());
    }
  }
  std::vector<sim::SimCheckpoint> checkpoints;

 private:
  int stride_;
};

TaskGraph delta_graph(int n, std::uint64_t seed) {
  gen::GnpDagOptions options;
  options.num_tasks = n;
  options.edge_probability = 6.0 / static_cast<double>(n - 1);
  options.seed = seed;
  return gen::gnp_dag(options);
}

/// A full run plus a resume from every 5th checkpoint, each checked by a
/// DeltaChecker; returns the full run's checker.
DeltaChecker check_delta_runs(const TaskGraph& graph,
                              const sim::FaultSpec* faults,
                              const sim::ArrivalPlan* arrivals) {
  const Topology machine = topo::hypercube(3);
  const CommModel comm = CommModel::paper_default();
  sim::SimOptions options;
  options.record_trace = false;
  options.faults = faults;
  options.arrivals = arrivals;
  DeltaChecker checker;
  sim::ResumableEngine engine(graph, machine, comm, checker, options);
  EveryNthCheckpoint capture(5);
  const sim::SimResult full = engine.run(&capture);
  EXPECT_FALSE(full.failed);
  EXPECT_EQ(checker.epochs, full.num_epochs);
  // Every task enters the pool once, plus once per return.
  EXPECT_EQ(checker.delivered, graph.num_tasks() + checker.returned);
  const DeltaChecker result = checker;
  EXPECT_GT(capture.checkpoints.size(), 2u);
  for (const sim::SimCheckpoint& cp : capture.checkpoints) {
    SCOPED_TRACE("resume from epoch " + std::to_string(cp.epoch_index()));
    const sim::SimResult resumed = engine.resume(cp);
    EXPECT_EQ(resumed.makespan, full.makespan);
    EXPECT_EQ(resumed.placement, full.placement);
    EXPECT_EQ(checker.epochs, full.num_epochs - cp.epoch_index());
  }
  // A plain ExecutionEngine run honours the same contract.
  DeltaChecker plain;
  const sim::SimResult again =
      sim::simulate(graph, machine, comm, plain, options);
  EXPECT_EQ(again.makespan, full.makespan);
  EXPECT_EQ(plain.delivered, result.delivered);
  return result;
}

TEST(EngineNewlyReady, FreshRunAndResumes) {
  const DeltaChecker checker = check_delta_runs(delta_graph(300, 5), nullptr,
                                                nullptr);
  EXPECT_EQ(checker.returned, 0);
}

TEST(EngineNewlyReady, CrashedTasksReappear) {
  sim::FaultSpec crashes;
  crashes.machine_mtbf = us(std::int64_t{1000});
  crashes.machine_mttr = us(std::int64_t{100});
  crashes.seed = 17;
  const DeltaChecker checker = check_delta_runs(delta_graph(300, 6), &crashes,
                                                nullptr);
  EXPECT_GT(checker.returned, 0) << "no crash sent a task back to the pool";
}

TEST(EngineNewlyReady, ArrivalsReleaseRoots) {
  sim::ArrivalSpec spec;
  spec.num_workflows = 10;
  spec.mean_gap = us(std::int64_t{150});
  spec.burst_prob = 0.4;
  spec.burst_mult = 6.0;
  spec.seed = 3;
  sim::ArrivalPlan plan;
  const TaskGraph graph = sim::build_arrival_instance(
      spec,
      [](int, std::uint64_t graph_seed) { return delta_graph(40, graph_seed); },
      plan);
  const DeltaChecker checker = check_delta_runs(graph, nullptr, &plan);
  EXPECT_EQ(checker.returned, 0);
}

}  // namespace
}  // namespace dagsched
