#pragma once

// Discrete-event execution engine (paper §6b: "a simulation program was
// developed which accurately records the execution and interprocessor
// communication").
//
// Machine model (paper §2):
//  * each processor executes one task at a time;
//  * links are bidirectional, carry one message at a time (per channel) and
//    use deterministic shortest-path store-and-forward routing;
//  * sending a message costs sigma on the source CPU, every routing hop and
//    the final receive cost tau on the respective CPU, and *incoming
//    messages preempt an active processor* — handling suspends the running
//    task and extends its completion;
//  * a message's wire time (the taskgraph edge weight w) occupies each
//    traversed channel in turn.
//
// Scheduling model (paper §4.1): the engine forms an epoch at time zero and
// whenever a processor returns to the idle pool while unassigned ready
// tasks exist; the policy assigns tasks to idle processors.  An assigned
// task reserves its processor, its input messages are launched immediately
// (producers already know the destination), and it starts executing once
// every input has been received and the CPU is free.

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/taskgraph.hpp"
#include "sim/arrivals.hpp"
#include "sim/faults.hpp"
#include "sim/scheduler_api.hpp"
#include "sim/trace.hpp"
#include "topology/comm_model.hpp"
#include "topology/topology.hpp"

namespace dagsched::sim {

namespace detail {
// Complete mid-run simulator state (event queue, machine occupancy,
// in-flight messages, ready pool, trace).  Defined in engine.cpp; outside
// the engine it is only handled through the opaque SimCheckpoint.
struct RunState;
// Per-engine cache of Topology::route results (engine.cpp).
class RouteTable;
}  // namespace detail

struct SimOptions {
  /// Record the full trace (task/epoch records, segments, transfers,
  /// messages, workflows).  When false, SimResult::trace stays empty and
  /// the hot replay path skips every trace allocation; the aggregate
  /// statistics (makespan, num_epochs, proc_busy, online metrics, ...) are
  /// always kept.
  bool record_trace = true;

  /// Hard event-count ceiling; exceeding it raises SimulationError (guards
  /// against pathological policies).
  std::uint64_t max_events = 50'000'000;

  /// Optional fault injection (sim/faults.hpp).  Null or inactive keeps
  /// the engine on the zero-fault fast path, byte-identical to builds
  /// before faults existed.  The pointed-to spec must outlive the engine.
  const FaultSpec* faults = nullptr;

  /// Optional online arrival plan (sim/arrivals.hpp): tasks of workflow w
  /// only become ready once its arrival time passes.  Null keeps the
  /// engine on the no-arrival fast path, byte-identical to builds before
  /// arrivals existed.  The pointed-to plan must outlive the engine and
  /// match the graph (ArrivalPlan::validate).
  const ArrivalPlan* arrivals = nullptr;
};

/// Raised when the simulation cannot make progress (a policy stops
/// assigning) or exceeds its event budget.
class SimulationError : public std::runtime_error {
 public:
  explicit SimulationError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Structured outcome of a run that could not complete: a message
/// exhausted its retransmission budget (FaultSpec::max_retries).  The run
/// stops gracefully; SimResult::makespan covers the completed prefix.
struct SimFailure {
  int message = -1;
  TaskId producer = kInvalidTask;
  TaskId consumer = kInvalidTask;
  int attempts = 0;  ///< total attempts made (initial send + retries)
  Time when = 0;     ///< simulation time of the exhaustion
};

struct SimResult {
  Time makespan = 0;                 ///< last task completion time
  std::vector<ProcId> placement;     ///< final mapping m(t)
  Trace trace;                       ///< see SimOptions::record_trace
  int num_epochs = 0;
  int num_messages = 0;              ///< interprocessor messages simulated
  Time total_task_time = 0;          ///< CPU time spent executing tasks
  Time total_comm_time = 0;          ///< CPU time spent handling messages
  std::vector<Time> proc_busy;       ///< per-processor busy time

  // Fault-injection outcome (all zero on the zero-fault path).
  bool failed = false;               ///< a message exhausted max_retries
  SimFailure failure;                ///< valid iff `failed`
  int num_retries = 0;               ///< message retransmissions
  int num_task_restarts = 0;         ///< tasks killed by machine crashes
  Time total_stall_time = 0;         ///< CPU time lost to transient stalls

  /// Online-scenario outcome (defaults on the no-arrival path; zeroed on
  /// failed runs — per-workflow completions are in Trace::workflows).
  OnlineMetrics online;

  /// Speedup S_p = T_1 / T_p for the given sequential time.
  double speedup(Time total_work) const;

  /// Mean processor utilization: busy time / (N_p * makespan).
  double utilization() const;
};

class ExecutionEngine {
 public:
  /// All references must outlive run().  The graph must be a non-empty DAG.
  ExecutionEngine(const TaskGraph& graph, const Topology& topology,
                  const CommModel& comm, SchedulingPolicy& policy,
                  SimOptions options = {});

  ~ExecutionEngine();

  /// Simulates the complete execution and returns the result.  Each call
  /// runs from scratch (the policy's on_run_start is invoked every time).
  SimResult run();

 private:
  const TaskGraph& graph_;
  const Topology& topology_;
  const CommModel& comm_;
  SchedulingPolicy& policy_;
  SimOptions options_;
  std::vector<Time> levels_;  ///< task levels, computed once per engine
  std::unique_ptr<detail::RouteTable> routes_;
  std::unique_ptr<FaultModel> fault_model_;  ///< null on zero-fault path
};

/// A deep copy of the simulator's state, taken at an assignment-epoch
/// boundary *before* the policy of that epoch ran.  Resuming from it and
/// re-running the remaining events reproduces the original run
/// bit-for-bit — unless the policy decides differently this time (which
/// is exactly what the incremental cost oracle exploits: everything
/// before the first diverging epoch is shared).
///
/// Checkpoints are immutable and cheap to copy (shared ownership of the
/// underlying state).  They are only meaningful for the (graph, topology,
/// comm, options) tuple they were recorded under.
class SimCheckpoint {
 public:
  SimCheckpoint() = default;

  /// Index of the epoch about to run when the snapshot was taken.
  int epoch_index() const { return epoch_index_; }
  /// Simulation clock at the snapshot.
  Time time() const { return time_; }
  /// Tasks already finished at the snapshot.
  int finished_tasks() const { return finished_tasks_; }
  bool valid() const { return state_ != nullptr; }

 private:
  friend class EpochView;
  friend class ResumableEngine;
  SimCheckpoint(int epoch_index, Time time, int finished_tasks,
                std::shared_ptr<const detail::RunState> state)
      : epoch_index_(epoch_index),
        time_(time),
        finished_tasks_(finished_tasks),
        state_(std::move(state)) {}

  int epoch_index_ = -1;
  Time time_ = 0;
  int finished_tasks_ = 0;
  std::shared_ptr<const detail::RunState> state_;
};

/// Read-only view of the simulator handed to an EpochObserver at each
/// assignment epoch, *before* the policy runs.  Valid only inside the
/// on_epoch call; call checkpoint() to keep a deep copy.
class EpochView {
 public:
  int epoch_index() const;
  Time now() const;
  /// Ready, unassigned tasks in ascending id order.
  std::span<const TaskId> ready_tasks() const;
  /// Idle processors in ascending id order.
  std::span<const ProcId> idle_procs() const { return idle_procs_; }
  int finished_tasks() const;
  /// Deep-copies the current simulator state into a resumable checkpoint.
  SimCheckpoint checkpoint() const;

  /// Like checkpoint(), but recycles the buffers of a retired checkpoint:
  /// when `recycle` holds the last reference to its state, the state is
  /// copy-assigned in place (reusing every container's capacity) instead
  /// of deep-allocated from scratch.  Replay loops snapshot thousands of
  /// checkpoints per second; handing back the ones they retire turns the
  /// snapshot's allocation storm into a plain buffer copy.
  SimCheckpoint checkpoint(SimCheckpoint recycle) const;

  /// Engine-internal: views are only constructed by the event loop.
  EpochView(const detail::RunState& state, std::span<const ProcId> idle)
      : state_(state), idle_procs_(idle) {}

 private:
  const detail::RunState& state_;
  std::span<const ProcId> idle_procs_;
};

/// Callbacks invoked at every assignment epoch of a ResumableEngine run.
/// on_epoch fires before the scheduling policy is consulted (the
/// snapshot point); on_epoch_decided fires right after, with the
/// assignments the policy declared.  The incremental cost oracle uses
/// them to record checkpoints, per-task first-ready/assignment epochs
/// and the per-epoch decision records behind its divergence walk.
class EpochObserver {
 public:
  virtual ~EpochObserver() = default;
  virtual void on_epoch(const EpochView& epoch) = 0;
  virtual void on_epoch_decided(int /*epoch_index*/,
                                std::span<const Assignment> /*assignments*/) {
  }
};

/// An execution engine that can snapshot its state at epoch boundaries
/// and resume a run from such a snapshot, skipping the shared prefix.
/// Unlike ExecutionEngine, the run state (vectors, event queue) is owned
/// by the engine and reused across calls, so replay loops do not pay a
/// fresh allocation storm per simulation.
///
/// resume(cp) is bit-identical to run() *iff* every policy decision up to
/// cp's epoch is unchanged; the caller is responsible for only resuming
/// from checkpoints whose prefix is unaffected (see
/// core/incremental_cost.hpp for the damage-frontier argument).  The
/// policy must be stateless across epochs (on_run_start is re-invoked on
/// every resume, but epochs before the checkpoint are not re-played
/// against the policy).  Two kinds of per-run policy state are allowed if
/// on_run_start clears them, because the resumed run rebuilds them from
/// the checkpoint's state: a memo of values that stay fixed for the rest
/// of the run once computed, and an index over the ready pool fed from
/// EpochContext::newly_ready — the first epoch of every run and every
/// resume delivers the whole pool as its delta.
class ResumableEngine {
 public:
  ResumableEngine(const TaskGraph& graph, const Topology& topology,
                  const CommModel& comm, SchedulingPolicy& policy,
                  SimOptions options = {});
  ~ResumableEngine();

  /// Full run from time zero, like ExecutionEngine::run().
  SimResult run(EpochObserver* observer = nullptr);

  /// Re-runs from `from` to completion.  The observer (when given) sees
  /// every epoch from the checkpoint's epoch onward, including the
  /// checkpoint's own epoch, which is re-executed.
  SimResult resume(const SimCheckpoint& from,
                   EpochObserver* observer = nullptr);

 private:
  const TaskGraph& graph_;
  const Topology& topology_;
  const CommModel& comm_;
  SchedulingPolicy& policy_;
  SimOptions options_;
  std::vector<Time> levels_;  ///< task levels, computed once per engine
  std::unique_ptr<detail::RouteTable> routes_;
  std::unique_ptr<FaultModel> fault_model_;  ///< null on zero-fault path
  std::unique_ptr<detail::RunState> scratch_;  ///< reused across runs
  std::vector<TaskId> newly_ready_;  ///< policy delta, reused across runs
};

/// Convenience wrapper: build an engine and run it.
SimResult simulate(const TaskGraph& graph, const Topology& topology,
                   const CommModel& comm, SchedulingPolicy& policy,
                   SimOptions options = {});

}  // namespace dagsched::sim
