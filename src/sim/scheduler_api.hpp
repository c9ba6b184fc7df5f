#pragma once

// The online scheduling interface between the execution engine and a
// scheduling policy (paper §4.1).
//
// The engine invokes the policy at every *assignment epoch*: time zero, and
// every instant at which at least one processor returns to the idle pool
// while unassigned ready tasks exist.  The policy sees the ready tasks (all
// predecessors completed), the idle processors, and the placement of every
// previously assigned task, and declares assignments — at most one task per
// idle processor.  Tasks it leaves unassigned are offered again at the next
// epoch (the paper: "unassigned tasks are moved to the following annealing
// packet").

#include <span>
#include <vector>

#include "graph/taskgraph.hpp"
#include "topology/comm_model.hpp"
#include "topology/topology.hpp"

namespace dagsched::sim {

struct ArrivalPlan;  // sim/arrivals.hpp; non-null only on online runs

/// One (task -> processor) decision made during an epoch.
struct Assignment {
  TaskId task = kInvalidTask;
  ProcId proc = kInvalidProc;
};

/// Everything a policy may inspect at one epoch, plus the assignment sink.
/// Built by the engine; policies must not retain references past the
/// on_epoch call.
class EpochContext {
 public:
  /// `assignments_scratch`, when given, is cleared and used as the
  /// assignment sink instead of a context-owned vector — the engine passes
  /// a per-run scratch buffer so the millions of epochs of a replay loop
  /// reuse one allocation.  The buffer must outlive the context.
  EpochContext(Time now, int epoch_index, const TaskGraph& graph,
               const Topology& topology, const CommModel& comm,
               std::span<const TaskId> ready_tasks,
               std::span<const TaskId> newly_ready,
               std::span<const ProcId> idle_procs,
               const std::vector<ProcId>& placement,
               const std::vector<Time>& levels,
               std::span<const ProcId> down_procs = {},
               const ArrivalPlan* arrivals = nullptr,
               std::vector<Assignment>* assignments_scratch = nullptr);

  Time now() const { return now_; }
  int epoch_index() const { return epoch_index_; }
  const TaskGraph& graph() const { return graph_; }
  const Topology& topology() const { return topology_; }
  const CommModel& comm() const { return comm_; }

  /// Ready, unassigned tasks in ascending id order.  Reading all of it
  /// costs O(|ready|) per epoch; at workflow scale thousands of tasks are
  /// ready while about one is assigned, so rank-ordered policies keep an
  /// index fed from newly_ready() instead (sched/policy.hpp).
  std::span<const TaskId> ready_tasks() const { return ready_tasks_; }

  /// The tasks that entered the ready pool since this policy's previous
  /// on_epoch call in the same run, in no particular order: successors
  /// whose last predecessor finished, workflow roots released by an
  /// arrival, and tasks a machine crash sent back to the pool.  The delta
  /// accumulates over epochs at which the policy is not called (no idle
  /// processor) and holds no task twice.  The first call after
  /// on_run_start — of a fresh run and of every ResumableEngine::resume —
  /// delivers the whole pool.  So ready_tasks() is always the previous
  /// call's ready_tasks(), minus the tasks it assigned, plus this.
  std::span<const TaskId> newly_ready() const { return newly_ready_; }

  /// Idle processors in ascending id order.
  std::span<const ProcId> idle_procs() const { return idle_procs_; }

  /// Processors currently down for repair (fault injection, ascending id
  /// order; empty on the zero-fault path).  Down processors never appear
  /// in idle_procs(); recovery-aware policies use this to repair offline
  /// plans (see sched::PolicyCapabilities::replan_on_fault).
  std::span<const ProcId> down_procs() const { return down_procs_; }

  /// placement()[t] is the processor of every finished or assigned task t,
  /// kInvalidProc for tasks not yet placed.  Predecessors of every ready
  /// task are always placed.
  const std::vector<ProcId>& placement() const { return placement_; }

  /// Task levels n_i (see graph/analysis.hpp), precomputed once per run.
  const std::vector<Time>& levels() const { return levels_; }

  /// The online arrival plan of the run, or null on offline runs.  Online
  /// policies (sched::PolicyCapabilities::online) use it for per-workflow
  /// arrival, deadline and weight context; every task in ready_tasks() has
  /// already arrived.
  const ArrivalPlan* arrivals() const { return arrivals_; }

  /// Declares an assignment.  Each task and each processor may be used at
  /// most once per epoch; the task must be in ready_tasks() and the
  /// processor in idle_procs().
  void assign(TaskId task, ProcId proc);

  /// Assignments made so far in this epoch, in declaration order.
  const std::vector<Assignment>& assignments() const { return *assignments_; }

 private:
  Time now_;
  int epoch_index_;
  const TaskGraph& graph_;
  const Topology& topology_;
  const CommModel& comm_;
  std::span<const TaskId> ready_tasks_;
  std::span<const TaskId> newly_ready_;
  std::span<const ProcId> idle_procs_;
  const std::vector<ProcId>& placement_;
  const std::vector<Time>& levels_;
  std::span<const ProcId> down_procs_;
  const ArrivalPlan* arrivals_;
  std::vector<Assignment> own_assignments_;   ///< used when no scratch given
  std::vector<Assignment>* assignments_;      ///< the active sink
};

/// Abstract online scheduling policy.  Implementations: HLF and friends in
/// src/sched, the simulated-annealing scheduler in src/core.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  /// Called once per run before the first epoch; optional.
  virtual void on_run_start(const TaskGraph&, const Topology&,
                            const CommModel&) {}

  /// Called at every assignment epoch; declare assignments via ctx.assign().
  virtual void on_epoch(EpochContext& ctx) = 0;

  /// Display name for reports.
  virtual std::string name() const = 0;

  /// For offline planners: the analytic makespan of the plan computed at
  /// on_run_start (0 when the policy computes no plan, or before any run).
  /// The service/sweep layers report it against the simulated makespan as
  /// the plan-vs-simulated gap.
  virtual Time planned_makespan() const { return 0; }
};

}  // namespace dagsched::sim
