#include "sim/engine.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "graph/analysis.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "util/require.hpp"

namespace dagsched::sim {

double SimResult::speedup(Time total_work) const {
  require(total_work >= 0, "SimResult::speedup: negative total work");
  if (makespan <= 0) return 0.0;
  return static_cast<double>(total_work) / static_cast<double>(makespan);
}

double SimResult::utilization() const {
  if (makespan <= 0 || proc_busy.empty()) return 0.0;
  Time busy = 0;
  for (Time t : proc_busy) busy += t;
  return static_cast<double>(busy) /
         (static_cast<double>(makespan) *
          static_cast<double>(proc_busy.size()));
}

namespace detail {

// The fault and arrival event kinds only ever enter the queue when their
// feature is active (SimOptions::faults / SimOptions::arrivals), so the
// plain offline event stream — types, times and sequence numbers — is
// byte-identical to the pre-fault, pre-arrival engine.
enum class EventType : std::uint8_t {
  TaskDone,
  CommDone,
  TransferDone,
  MachineDown,   // fault: crash window begins on `proc`
  MachineUp,     // fault: repair window ends on `proc`
  StallStart,    // fault: transient stall begins on `proc`
  LinkDown,      // fault: outage/degrade window begins on channel `message`
  LinkUp,        // fault: link window ends on channel `message`
  MsgTimeout,    // fault: retransmission timer of message `message`
  MsgRetry,      // fault: backoff elapsed, retransmit message `message`
  WorkflowArrival,  // online: workflow `message` enters the ready set
};

/// 32-byte packed: seq and gen are 32-bit — both are bounded by the event
/// budget (SimOptions::max_events, 50M default, far below 2^32), and the
/// event heap is the hottest data structure of the replay loop, so the
/// smaller sift moves are measurable.
struct Event {
  Time time = 0;
  std::uint32_t seq = 0;  ///< FIFO tie-break for equal times
  EventType type = EventType::TaskDone;
  ProcId proc = kInvalidProc;    // TaskDone, CommDone, Machine*/StallStart
  std::uint32_t gen = 0;         // staleness guard (task/comm/transfer gen,
                                 // message attempt for MsgTimeout/MsgRetry)
  int message = -1;              // TransferDone/Msg* id, Link* channel id
};
static_assert(sizeof(Event) == 32);

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// (time, seq) is a total order, so ANY correct priority queue pops the
/// same event sequence — the heap's internal layout never leaks into the
/// simulation.  A hand-rolled 4-ary heap halves the sift depth of the
/// std:: binary heap and keeps parent/child nodes within one cache line
/// pair, which is measurable at the event rates the incremental oracle
/// replays at.
inline bool event_earlier(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

inline void event_heap_push(std::vector<Event>& heap, const Event& event) {
  heap.push_back(event);
  std::size_t i = heap.size() - 1;
  // Hole-bubbling: shift parents down and place the event once, instead
  // of a full 32-byte swap per level.
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!event_earlier(event, heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = event;
}

/// Removes heap.front() (the earliest event); the caller reads it first.
inline void event_heap_pop(std::vector<Event>& heap) {
  const std::size_t size = heap.size() - 1;
  if (size == 0) {
    heap.pop_back();
    return;
  }
  const Event moved = heap.back();
  heap.pop_back();
  std::size_t i = 0;
  while (true) {
    const std::size_t first_child = (i << 2) + 1;
    if (first_child >= size) break;
    const std::size_t last_child = std::min(first_child + 4, size);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (event_earlier(heap[c], heap[best])) best = c;
    }
    if (!event_earlier(heap[best], moved)) break;
    heap[i] = heap[best];
    i = best;
  }
  heap[i] = moved;
}

/// In-flight interprocessor message.  The route itself lives in the
/// engine's per-(src, dst) route cache — keeping this struct flat makes
/// launching a message and copying a checkpoint allocation-free.
struct MessageState {
  int id = -1;
  TaskId producer = kInvalidTask;
  TaskId consumer = kInvalidTask;
  ProcId src = kInvalidProc;
  ProcId dst = kInvalidProc;

  // Fault state (always default on the zero-fault path).  32-bit
  // generations keep the struct at 64 bytes — the messages vector is hot
  // in the zero-fault event loop, and a retry/restart count can't
  // plausibly reach 2^32 under the event budget.
  std::uint32_t attempt = 1;      ///< 1 = initial send, 2 = first retry
  std::uint32_t transfer_gen = 0; ///< bumped on kill/retry; stales events
  bool delivered = false;
  bool cancelled = false;         ///< consumer's reservation was crashed

  Time weight = 0;
  std::size_t hop = 0;        ///< index into the route of the holding node
  Time launched = 0;
  Time transfer_start = 0;    ///< start of the transfer currently in flight
};

/// One cached route: the node path plus the channel id of every hop, so
/// the per-hop transfer handlers never go back to the topology's channel
/// matrix (Topology::channel was the hottest lookup of the transfer path).
struct CachedRoute {
  std::vector<ProcId> path;
  std::vector<ChannelId> channels;  ///< channels[i] links path[i], path[i+1]
};

/// Lazy cache of Topology::route results, one per (src, dst) pair.  The
/// routes are a pure function of the topology, so the cache is shared by
/// every run (and every checkpoint) of one engine.
class RouteTable {
 public:
  explicit RouteTable(const Topology& topology)
      : topology_(topology),
        routes_(static_cast<std::size_t>(topology.num_procs()) *
                static_cast<std::size_t>(topology.num_procs())) {}

  const CachedRoute& route(ProcId from, ProcId dest) {
    CachedRoute& cached =
        routes_[static_cast<std::size_t>(from) *
                    static_cast<std::size_t>(topology_.num_procs()) +
                static_cast<std::size_t>(dest)];
    if (cached.path.empty()) {
      cached.path = topology_.route(from, dest);
      cached.channels.reserve(cached.path.size() - 1);
      for (std::size_t i = 0; i + 1 < cached.path.size(); ++i) {
        const ChannelId c =
            topology_.channel(cached.path[i], cached.path[i + 1]);
        ensure(c != kInvalidChannel, "route uses a missing link");
        cached.channels.push_back(c);
      }
    }
    return cached;
  }

 private:
  const Topology& topology_;
  std::vector<CachedRoute> routes_;
};

enum class SigmaState { NotPaid, Paying, Paid };

/// The complete mutable state of one run.  Everything the event loop
/// reads or writes lives here — copying a RunState at an epoch boundary
/// and resuming the loop on the copy reproduces the remainder of the run
/// bit-for-bit (all containers are value types; time, sequence numbers
/// and the event queue are included).  Immutable per-run inputs (graph,
/// topology, comm model, task levels) stay outside.
struct RunState {
  MachineState machine;
  std::vector<ProcId> placement;
  std::vector<int> unfinished_preds;
  std::vector<bool> task_started;
  std::vector<SigmaState> sigma_state;
  std::vector<std::vector<int>> pending_after_sigma;
  std::vector<TaskRecord> task_records;
  std::vector<Time> proc_busy;
  std::vector<TaskId> ready_pool;  ///< ready & unassigned, kept sorted
  std::vector<MessageState> messages;
  std::vector<Time> comm_start;  ///< per-proc start of the active comm job
  std::vector<ProcId> idle_scratch;  ///< per-epoch idle list, reused
  std::vector<Assignment> assign_scratch;  ///< per-epoch assignment sink

  /// Pending events as a 4-ary min-heap under event_earlier (hand-rolled
  /// on a plain vector instead of std::priority_queue, so repeated runs
  /// reuse the buffer and the sift depth is half the binary heap's).
  /// (time, seq) is a total order (seq breaks every tie), so the pop
  /// sequence — and with it the simulation — is independent of the heap's
  /// internal layout.
  std::vector<Event> events;
  std::uint32_t next_seq = 0;  ///< bounded by SimOptions::max_events
  Time now = 0;
  int finished_count = 0;
  int epoch_count = 0;
  bool epoch_trigger = true;
  Time makespan = 0;
  Time total_comm_time = 0;

  // Fault-injection state (empty/zero on the zero-fault path).  The
  // cursors are plain values, so checkpoints capture fault progress too.
  std::vector<FaultCursor> machine_faults;  ///< per-proc crash stream
  std::vector<FaultCursor> stall_faults;    ///< per-proc stall stream
  std::vector<FaultCursor> link_faults;     ///< per-channel link stream
  std::vector<ProcId> down_scratch;         ///< per-epoch down list, reused
  /// Cumulative message launches per (producer, consumer) edge.  A crashed
  /// destination cancels the reservation and the re-assignment launches
  /// fresh messages; without this ledger each relaunch would reset the
  /// retry budget and a crash-cancel-relaunch cycle could outrun
  /// max_retries forever (an unbounded simulation).  The budget is per
  /// *edge*, so exhaustion is a structured SimFailure either way.
  std::map<std::pair<TaskId, TaskId>, int> edge_launches;
  int num_retries = 0;
  int num_task_restarts = 0;
  Time total_stall_time = 0;
  bool failed = false;
  SimFailure failure;

  // Online-arrival state (empty on the no-arrival path).  Roots of every
  // workflow are withheld from the initial ready pool and released by that
  // workflow's WorkflowArrival event; all plain values, so checkpoints
  // capture arrival progress too.
  std::vector<int> workflow_remaining;   ///< unfinished tasks per workflow
  std::vector<Time> workflow_completion; ///< finish of the last task, or 0
  std::vector<TaskId> arrival_roots;     ///< withheld roots, grouped (CSR)
  std::vector<int> arrival_root_begin;   ///< per-workflow offsets into ^

  Trace trace;

  explicit RunState(const Topology& topology) : machine(topology) {}
};

/// (Re)initializes `s` to the time-zero state of a fresh run, reusing
/// existing buffer capacity wherever the containers allow it — replay
/// loops run thousands of simulations per second through one state.
void init_state(RunState& s, const TaskGraph& graph,
                const Topology& topology, const FaultModel* faults,
                const ArrivalPlan* arrivals, bool record_trace) {
  const auto n = static_cast<std::size_t>(graph.num_tasks());
  const auto p = static_cast<std::size_t>(topology.num_procs());
  if (s.machine.num_procs() == topology.num_procs()) {
    s.machine.reset();
  } else {
    s.machine = MachineState(topology);
  }
  s.placement.assign(n, kInvalidProc);
  s.unfinished_preds.assign(n, 0);
  s.task_started.assign(n, false);
  s.sigma_state.assign(n, SigmaState::NotPaid);
  s.pending_after_sigma.resize(n);
  for (std::vector<int>& pending : s.pending_after_sigma) pending.clear();
  // Per-task records feed Trace::tasks only; a traceless run (the replay
  // loops) keeps the vector empty so every state copy skips it.
  if (record_trace) {
    s.task_records.assign(n, TaskRecord{});
  } else {
    s.task_records.clear();
  }
  s.proc_busy.assign(p, 0);
  s.ready_pool.clear();
  s.messages.clear();
  s.comm_start.assign(p, 0);
  s.events.clear();
  s.next_seq = 0;
  s.now = 0;
  s.finished_count = 0;
  s.epoch_count = 0;
  s.epoch_trigger = true;
  s.makespan = 0;
  s.total_comm_time = 0;
  s.machine_faults.clear();
  s.stall_faults.clear();
  s.link_faults.clear();
  s.down_scratch.clear();
  s.edge_launches.clear();
  s.num_retries = 0;
  s.num_task_restarts = 0;
  s.total_stall_time = 0;
  s.failed = false;
  s.failure = SimFailure{};
  s.workflow_remaining.clear();
  s.workflow_completion.clear();
  s.arrival_roots.clear();
  s.arrival_root_begin.clear();
  s.trace.task_segments.clear();
  s.trace.comm_segments.clear();
  s.trace.transfers.clear();
  s.trace.messages.clear();
  s.trace.tasks.clear();
  s.trace.epochs.clear();
  s.trace.faults.clear();
  s.trace.retries.clear();
  s.trace.workflows.clear();

  // Under an arrival plan every root is withheld from the initial ready
  // pool and released by its workflow's WorkflowArrival event instead (the
  // time-zero epoch then sees an empty pool and no-ops; workflow 0's
  // arrival at t=0 re-triggers it within the same instant).
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    s.unfinished_preds[static_cast<std::size_t>(t)] = graph.in_degree(t);
    if (s.unfinished_preds[static_cast<std::size_t>(t)] == 0 &&
        arrivals == nullptr) {
      s.ready_pool.push_back(t);
    }
  }

  const auto seed_event = [&s](Event event) {
    event.seq = s.next_seq++;
    event_heap_push(s.events, event);
  };

  if (arrivals != nullptr) {
    // Group the withheld roots per workflow (CSR layout) so an arrival
    // releases one contiguous slice, and seed one WorkflowArrival event
    // per workflow.
    const int workflows = arrivals->num_workflows();
    s.workflow_remaining.assign(static_cast<std::size_t>(workflows), 0);
    s.workflow_completion.assign(static_cast<std::size_t>(workflows), 0);
    for (const int wf : arrivals->task_workflow) {
      ++s.workflow_remaining[static_cast<std::size_t>(wf)];
    }
    s.arrival_root_begin.assign(static_cast<std::size_t>(workflows) + 1, 0);
    for (TaskId t = 0; t < graph.num_tasks(); ++t) {
      if (graph.in_degree(t) == 0) {
        const int wf = arrivals->task_workflow[static_cast<std::size_t>(t)];
        ++s.arrival_root_begin[static_cast<std::size_t>(wf) + 1];
      }
    }
    for (int w = 0; w < workflows; ++w) {
      s.arrival_root_begin[static_cast<std::size_t>(w) + 1] +=
          s.arrival_root_begin[static_cast<std::size_t>(w)];
    }
    s.arrival_roots.assign(
        static_cast<std::size_t>(s.arrival_root_begin.back()), kInvalidTask);
    std::vector<int> cursor(s.arrival_root_begin.begin(),
                            s.arrival_root_begin.end() - 1);
    for (TaskId t = 0; t < graph.num_tasks(); ++t) {
      if (graph.in_degree(t) == 0) {
        const int wf = arrivals->task_workflow[static_cast<std::size_t>(t)];
        s.arrival_roots[static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(wf)]++)] = t;
      }
    }
    for (int w = 0; w < workflows; ++w) {
      seed_event(Event{arrivals->arrival[static_cast<std::size_t>(w)], 0,
                       EventType::WorkflowArrival, kInvalidProc, 0, w});
    }
  }

  if (faults == nullptr) return;
  // Seed the per-entity fault streams: exactly one outstanding event per
  // active stream (Down -> Up -> next Down, Stall -> next Stall), pushed
  // eagerly so the event heap never runs dry while a stream is live.
  s.machine_faults.reserve(p);
  s.stall_faults.reserve(p);
  for (ProcId proc = 0; proc < topology.num_procs(); ++proc) {
    s.machine_faults.push_back(faults->machine_cursor(proc));
    const FaultCursor& crash = s.machine_faults.back();
    if (!crash.exhausted) {
      seed_event(Event{crash.window.begin, 0, EventType::MachineDown, proc,
                       0, -1});
    }
    s.stall_faults.push_back(faults->stall_cursor(proc));
    const FaultCursor& stall = s.stall_faults.back();
    if (!stall.exhausted) {
      seed_event(Event{stall.window.begin, 0, EventType::StallStart, proc,
                       0, -1});
    }
  }
  s.link_faults.reserve(static_cast<std::size_t>(topology.num_channels()));
  for (ChannelId c = 0; c < topology.num_channels(); ++c) {
    s.link_faults.push_back(faults->link_cursor(c));
    const FaultCursor& link = s.link_faults.back();
    if (!link.exhausted) {
      seed_event(Event{link.window.begin, 0, EventType::LinkDown,
                       kInvalidProc, 0, static_cast<int>(c)});
    }
  }
}

}  // namespace detail

namespace {

using detail::Event;
using detail::EventType;
using detail::MessageState;
using detail::RunState;
using detail::SigmaState;

/// The event loop, operating on an externally owned RunState.  The
/// immutable inputs (graph, topology, comm, levels) are per-run
/// constants; everything mutable is in `s_`, so the same loop serves
/// fresh runs and checkpoint resumes alike.
class Run {
 public:
  Run(const TaskGraph& graph, const Topology& topology, const CommModel& comm,
      SchedulingPolicy& policy, const SimOptions& options,
      const std::vector<Time>& levels, detail::RouteTable& routes,
      RunState& state, const FaultModel* faults, const ArrivalPlan* arrivals,
      std::vector<TaskId>& newly_ready)
      : graph_(graph),
        topology_(topology),
        comm_(comm),
        policy_(policy),
        options_(options),
        levels_(levels),
        routes_(routes),
        s_(state),
        faults_(faults),
        arrivals_(arrivals),
        newly_ready_(newly_ready) {
    newly_ready_.clear();
  }

  SimResult execute(EpochObserver* observer);

 private:
  // --- event plumbing ------------------------------------------------------
  void push_event(Event event) {
    event.seq = s_.next_seq++;
    detail::event_heap_push(s_.events, event);
  }

  // --- processor-side comm handling ---------------------------------------
  void record_task_span(ProcId p, TaskId task, Time start, Time end,
                        bool completes);
  void enqueue_comm(ProcId p, CommJob job);
  void dispatch_cpu(ProcId p);
  void on_comm_done(ProcId p, std::uint32_t gen);

  // --- task execution ------------------------------------------------------
  void try_start_reserved(ProcId p);
  void schedule_task_done(ProcId p);
  void on_task_done(ProcId p, std::uint32_t gen);

  // --- message transport ---------------------------------------------------
  void launch_message(TaskId producer, TaskId consumer, Time weight,
                      ProcId src, ProcId dst);
  void request_transfer(int message);
  void begin_transfer(int message, ChannelId channel_id);
  void start_next_queued(ChannelId channel_id);
  void on_transfer_done(int message, std::uint32_t gen);
  void deliver(int message);

  // --- fault injection -----------------------------------------------------
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  void handle_fault_event(const Event& event);
  void record_fault(FaultKind kind, std::int32_t entity);
  void restart_task(TaskId task);
  void drop_active_comm(ProcId p);
  void on_machine_down(ProcId p);
  void on_machine_up(ProcId p);
  void on_stall_start(ProcId p);
  void on_link_down(ChannelId channel_id);
  void on_link_up(ChannelId channel_id);
  void on_msg_timeout(int message, std::uint32_t attempt);
  void on_msg_retry(int message, std::uint32_t attempt);
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  bool stalled_under_faults() const;

  // --- online arrivals -----------------------------------------------------
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  void on_workflow_arrival(int workflow);

  // --- scheduling ----------------------------------------------------------
  /// Puts a task into the (sorted) ready pool and the policy's delta.
  void add_ready(TaskId task) {
    s_.ready_pool.insert(
        std::upper_bound(s_.ready_pool.begin(), s_.ready_pool.end(), task),
        task);
    newly_ready_.push_back(task);
  }
  void run_epoch(EpochObserver* observer);
  void apply_assignment(TaskId task, ProcId p, int epoch_index);

  const TaskGraph& graph_;
  const Topology& topology_;
  const CommModel& comm_;
  SchedulingPolicy& policy_;
  const SimOptions& options_;
  const std::vector<Time>& levels_;
  detail::RouteTable& routes_;
  RunState& s_;
  const FaultModel* faults_;  ///< null on the zero-fault fast path
  const ArrivalPlan* arrivals_;  ///< null on the no-arrival fast path
  /// Tasks that entered the ready pool since the policy's previous
  /// on_epoch (EpochContext::newly_ready).  Engine-owned scratch outside
  /// RunState, so checkpoints never copy it.
  std::vector<TaskId>& newly_ready_;
  /// The policy has not been called yet in this run (or since the
  /// resume): its first epoch is handed the whole pool as the delta.
  bool whole_pool_ = true;
};

void Run::record_task_span(ProcId p, TaskId task, Time start, Time end,
                           bool completes) {
  // `started` marks the first instant the task actually made progress (a
  // zero-length span that was immediately preempted does not count, but the
  // completing span of a zero-duration task does).
  if (end > start || completes) {
    if (!s_.task_started[static_cast<std::size_t>(task)]) {
      s_.task_started[static_cast<std::size_t>(task)] = true;
      if (options_.record_trace) {
        s_.task_records[static_cast<std::size_t>(task)].started = start;
      }
    }
  }
  if (options_.record_trace && (end > start || completes)) {
    s_.trace.task_segments.push_back(TaskSegment{p, task, start, end,
                                                 completes});
  }
}

void Run::enqueue_comm(ProcId p, CommJob job) {
  ProcessorState& proc = s_.machine.proc(p);
  // Incoming message handling preempts an executing task (paper §2).
  if (proc.task_executing) {
    record_task_span(p, proc.running_task, proc.segment_start, s_.now,
                     /*completes=*/false);
    proc.task_remaining -= s_.now - proc.segment_start;
    s_.proc_busy[static_cast<std::size_t>(p)] += s_.now - proc.segment_start;
    ensure(proc.task_remaining >= 0, "negative remaining work on preempt");
    proc.task_executing = false;
    ++proc.task_event_gen;  // invalidate the scheduled completion
  }
  proc.comm_queue.push_back(job);
  dispatch_cpu(p);
}

void Run::dispatch_cpu(ProcId p) {
  ProcessorState& proc = s_.machine.proc(p);
  if (!proc.cpu_free()) return;
  if (!proc.comm_queue.empty()) {
    proc.active_comm = proc.comm_queue.front();
    proc.comm_queue.pop_front();
    s_.comm_start[static_cast<std::size_t>(p)] = s_.now;
    // comm_event_gen (always 0 without faults) stales this completion if
    // the processor crashes while the job runs.
    push_event(Event{s_.now + proc.active_comm->duration, 0,
                     EventType::CommDone, p, proc.comm_event_gen,
                     proc.active_comm->message});
    return;
  }
  if (proc.running_task != kInvalidTask) {
    // Resume the suspended task.
    proc.task_executing = true;
    proc.segment_start = s_.now;
    schedule_task_done(p);
    return;
  }
  try_start_reserved(p);
}

void Run::on_comm_done(ProcId p, std::uint32_t gen) {
  ProcessorState& proc = s_.machine.proc(p);
  if (faults_ != nullptr && gen != proc.comm_event_gen) return;  // crashed
  ensure(proc.active_comm.has_value(), "CommDone without an active job");
  const CommJob job = *proc.active_comm;
  const Time start = s_.comm_start[static_cast<std::size_t>(p)];
  if (options_.record_trace) {
    s_.trace.comm_segments.push_back(
        CommSegment{p, job.kind, job.message, start, s_.now});
  }
  s_.proc_busy[static_cast<std::size_t>(p)] += s_.now - start;
  if (job.kind == CommKind::Stall) {
    s_.total_stall_time += s_.now - start;
  } else {
    s_.total_comm_time += s_.now - start;
  }
  proc.active_comm.reset();

  // The CPU time above is paid either way; the *message action* is skipped
  // when the message was retried or cancelled while this job was pending.
  const bool stale_message =
      faults_ != nullptr && job.message >= 0 &&
      (s_.messages[static_cast<std::size_t>(job.message)].cancelled ||
       job.gen !=
           s_.messages[static_cast<std::size_t>(job.message)].transfer_gen);

  switch (job.kind) {
    case CommKind::Send: {
      if (!stale_message) request_transfer(job.message);
      if (comm_.send_cpu == SendCpu::PerTaskOutput) {
        const TaskId producer =
            s_.messages[static_cast<std::size_t>(job.message)].producer;
        s_.sigma_state[static_cast<std::size_t>(producer)] = SigmaState::Paid;
        for (const int pending :
             s_.pending_after_sigma[static_cast<std::size_t>(producer)]) {
          if (faults_ != nullptr) {
            const MessageState& m =
                s_.messages[static_cast<std::size_t>(pending)];
            // Entries retried or cancelled while sigma was being paid
            // already re-entered (or left) the network on their own.
            if (m.cancelled || m.transfer_gen != 0) continue;
          }
          request_transfer(pending);
        }
        s_.pending_after_sigma[static_cast<std::size_t>(producer)].clear();
      }
      break;
    }
    case CommKind::Route:
      if (!stale_message) request_transfer(job.message);
      break;
    case CommKind::Receive:
      if (!stale_message) deliver(job.message);
      break;
    case CommKind::Stall:
      break;  // the stall window just occupied the CPU
  }
  dispatch_cpu(p);
}

void Run::try_start_reserved(ProcId p) {
  ProcessorState& proc = s_.machine.proc(p);
  if (proc.reserved_task == kInvalidTask || proc.pending_inputs > 0) return;
  if (!proc.cpu_free() || proc.running_task != kInvalidTask) return;
  const TaskId task = proc.reserved_task;
  proc.reserved_task = kInvalidTask;
  proc.running_task = task;
  // Under duration uncertainty (online runs) the engine executes the
  // *actual* duration; graph_.duration stays the scheduler's estimate.
  proc.task_remaining =
      arrivals_ != nullptr && !arrivals_->actual_duration.empty()
          ? arrivals_->actual_duration[static_cast<std::size_t>(task)]
          : graph_.duration(task);
  proc.task_executing = true;
  proc.segment_start = s_.now;
  schedule_task_done(p);
}

void Run::schedule_task_done(ProcId p) {
  ProcessorState& proc = s_.machine.proc(p);
  push_event(Event{s_.now + proc.task_remaining, 0, EventType::TaskDone, p,
                   proc.task_event_gen, -1});
}

void Run::on_task_done(ProcId p, std::uint32_t gen) {
  ProcessorState& proc = s_.machine.proc(p);
  if (!proc.task_executing || gen != proc.task_event_gen) return;  // stale
  const TaskId task = proc.running_task;
  ensure(task != kInvalidTask, "TaskDone on an idle processor");
  record_task_span(p, task, proc.segment_start, s_.now, /*completes=*/true);
  s_.proc_busy[static_cast<std::size_t>(p)] += s_.now - proc.segment_start;
  proc.task_executing = false;
  proc.running_task = kInvalidTask;
  proc.task_remaining = 0;

  if (options_.record_trace) {
    s_.task_records[static_cast<std::size_t>(task)].finished = s_.now;
  }
  s_.makespan = std::max(s_.makespan, s_.now);
  ++s_.finished_count;

  for (const EdgeRef& succ : graph_.successors(task)) {
    auto& pending = s_.unfinished_preds[static_cast<std::size_t>(succ.task)];
    ensure(pending > 0, "predecessor count underflow");
    if (--pending == 0) add_ready(succ.task);
  }
  if (arrivals_ != nullptr) {
    const int wf =
        arrivals_->task_workflow[static_cast<std::size_t>(task)];
    auto& remaining = s_.workflow_remaining[static_cast<std::size_t>(wf)];
    ensure(remaining > 0, "workflow task count underflow");
    if (--remaining == 0) {
      s_.workflow_completion[static_cast<std::size_t>(wf)] = s_.now;
    }
  }
  s_.epoch_trigger = true;  // this processor just became idle
}

/// Releases a workflow's withheld roots into the ready pool at its arrival
/// time.  Cold: only online runs ever queue WorkflowArrival events.
void Run::on_workflow_arrival(int workflow) {
  const int begin =
      s_.arrival_root_begin[static_cast<std::size_t>(workflow)];
  const int end =
      s_.arrival_root_begin[static_cast<std::size_t>(workflow) + 1];
  for (int i = begin; i < end; ++i) {
    add_ready(s_.arrival_roots[static_cast<std::size_t>(i)]);
  }
  s_.epoch_trigger = true;  // fresh work for the idle pool
}

void Run::launch_message(TaskId producer, TaskId consumer, Time weight,
                         ProcId src, ProcId dst) {
  if (faults_ != nullptr) {
    // The delivery budget of an edge survives reassignment: a crashed
    // destination cancels its messages and the next assignment launches
    // fresh ones, so without this ledger the retry budget would reset on
    // every crash and a crash-cancel-relaunch cycle could run forever.
    int& launches = s_.edge_launches[{producer, consumer}];
    launches += 1;
    if (launches > faults_->spec().max_retries + 1) {
      if (!s_.failed) {
        s_.failed = true;
        s_.failure =
            SimFailure{-1, producer, consumer, launches - 1, s_.now};
      }
      return;
    }
  }
  const int id = static_cast<int>(s_.messages.size());
  MessageState msg;
  msg.id = id;
  msg.producer = producer;
  msg.consumer = consumer;
  msg.src = src;
  msg.dst = dst;
  msg.weight = weight;
  msg.launched = s_.now;
  s_.messages.push_back(msg);
  s_.machine.proc(dst).pending_inputs += 1;

  if (faults_ != nullptr) {
    // Arm the sender-side retransmission timer; it fires regardless of
    // where the message gets lost (dropped link, crashed CPU, dead
    // destination reservation).
    push_event(Event{s_.now + faults_->spec().msg_timeout, 0,
                     EventType::MsgTimeout, kInvalidProc, msg.attempt, id});
    if (s_.machine.proc(src).down) {
      // The source is mid-repair: the message cannot enter the network
      // now; the timeout above retries once the machine is back.
      return;
    }
  }

  // Sender-side CPU cost per CommModel::send_cpu (see comm_model.hpp).
  switch (comm_.send_cpu) {
    case SendCpu::PerMessage:
      enqueue_comm(src, CommJob{CommKind::Send, id, 0, comm_.sigma});
      break;
    case SendCpu::PerTaskOutput: {
      auto& state = s_.sigma_state[static_cast<std::size_t>(producer)];
      if (state == SigmaState::NotPaid) {
        state = SigmaState::Paying;
        enqueue_comm(src, CommJob{CommKind::Send, id, 0, comm_.sigma});
      } else if (state == SigmaState::Paying) {
        // The producer's output is still being prepared; this message
        // enters the network when the send job completes.
        s_.pending_after_sigma[static_cast<std::size_t>(producer)].push_back(
            id);
      } else {
        request_transfer(id);  // output already primed: hardware replays
      }
      break;
    }
    case SendCpu::Offloaded:
      request_transfer(id);
      break;
  }
}

void Run::request_transfer(int message) {
  MessageState& msg = s_.messages[static_cast<std::size_t>(message)];
  const detail::CachedRoute& route = routes_.route(msg.src, msg.dst);
  ensure(msg.hop + 1 < route.path.size(), "transfer past the destination");
  const ProcId from = route.path[msg.hop];
  const ProcId to = route.path[msg.hop + 1];
  const ChannelId channel_id = route.channels[msg.hop];
  ChannelState& channel = s_.machine.channel(channel_id);
  if (channel.busy || (faults_ != nullptr && channel.down)) {
    // Busy — or down for repair: the transfer waits for the link to come
    // back (LinkUp drains the queue).
    channel.queue.push_back(
        PendingTransfer{message, from, to, msg.transfer_gen});
    return;
  }
  channel.busy = true;
  begin_transfer(message, channel_id);
}

void Run::begin_transfer(int message, ChannelId channel_id) {
  MessageState& msg = s_.messages[static_cast<std::size_t>(message)];
  msg.transfer_start = s_.now;
  Time wire = msg.weight;
  if (faults_ != nullptr) {
    // Only the fault paths (link kill, degradation) need the channel
    // record; the zero-fault path skips the lookup entirely.
    ChannelState& channel = s_.machine.channel(channel_id);
    channel.active_message = message;
    if (channel.degraded) wire *= faults_->spec().link_degrade_factor;
  }
  // transfer_gen (always 0 without faults) stales this completion if the
  // transfer is killed by a link drop or superseded by a retransmission.
  push_event(Event{s_.now + wire, 0, EventType::TransferDone, kInvalidProc,
                   msg.transfer_gen, message});
}

void Run::start_next_queued(ChannelId channel_id) {
  ChannelState& channel = s_.machine.channel(channel_id);
  while (!channel.queue.empty()) {
    const PendingTransfer next = channel.queue.front();
    channel.queue.pop_front();
    if (faults_ != nullptr) {
      const MessageState& m =
          s_.messages[static_cast<std::size_t>(next.message)];
      // Skip attempts killed or superseded while they waited in line.
      if (m.cancelled || m.transfer_gen != next.transfer_gen) continue;
    }
    channel.busy = true;
    begin_transfer(next.message, channel_id);
    return;
  }
}

void Run::on_transfer_done(int message, std::uint32_t gen) {
  MessageState& msg = s_.messages[static_cast<std::size_t>(message)];
  // Staleness first: a killed/retried attempt already released its channel
  // and may have reset `hop`, so nothing below would be valid for it.
  if (faults_ != nullptr && gen != msg.transfer_gen) return;
  const detail::CachedRoute& route = routes_.route(msg.src, msg.dst);
  const ChannelId channel_id = route.channels[msg.hop];
  if (options_.record_trace) {
    s_.trace.transfers.push_back(TransferSegment{
        channel_id, message, route.path[msg.hop], route.path[msg.hop + 1],
        msg.transfer_start, s_.now});
  }
  ChannelState& channel = s_.machine.channel(channel_id);
  ensure(channel.busy, "TransferDone on an idle channel");
  channel.busy = false;
  if (faults_ != nullptr) channel.active_message = -1;
  start_next_queued(channel_id);

  msg.hop += 1;
  const ProcId here = route.path[msg.hop];
  if (faults_ != nullptr && s_.machine.proc(here).down) {
    // The node that should receive/route the message is mid-repair: the
    // message is lost here and recovered by the sender-side timeout.
    return;
  }
  const bool at_destination = here == msg.dst;
  enqueue_comm(here, CommJob{at_destination ? CommKind::Receive
                                            : CommKind::Route,
                             message, msg.transfer_gen, comm_.tau});
}

void Run::deliver(int message) {
  MessageState& msg = s_.messages[static_cast<std::size_t>(message)];
  ProcessorState& proc = s_.machine.proc(msg.dst);
  if (faults_ != nullptr) {
    // Under fault injection the destination's reservation may have been
    // crashed away (and possibly replaced) since this attempt launched;
    // such deliveries are silently dropped — the consumer's re-assignment
    // launches fresh messages.
    if (msg.delivered || msg.cancelled || proc.down ||
        proc.reserved_task != msg.consumer) {
      return;
    }
  }
  ensure(proc.reserved_task == msg.consumer,
         "message delivered to a processor not reserving its consumer");
  ensure(proc.pending_inputs > 0, "pending input underflow");
  proc.pending_inputs -= 1;
  msg.delivered = true;
  if (options_.record_trace) {
    s_.trace.messages.push_back(MessageRecord{
        msg.id, msg.producer, msg.consumer, msg.src, msg.dst, msg.weight,
        topology_.distance_unchecked(msg.src, msg.dst), msg.launched,
        s_.now});
  }
  // The CPU is free at this instant (the receive job just ended); the
  // dispatch in on_comm_done starts the task if this was the last input.
}

void Run::handle_fault_event(const Event& event) {
  switch (event.type) {
    case EventType::MachineDown:
      on_machine_down(event.proc);
      break;
    case EventType::MachineUp:
      on_machine_up(event.proc);
      break;
    case EventType::StallStart:
      on_stall_start(event.proc);
      break;
    case EventType::LinkDown:
      on_link_down(static_cast<ChannelId>(event.message));
      break;
    case EventType::LinkUp:
      on_link_up(static_cast<ChannelId>(event.message));
      break;
    case EventType::MsgTimeout:
      on_msg_timeout(event.message, event.gen);
      break;
    case EventType::MsgRetry:
      on_msg_retry(event.message, event.gen);
      break;
    default:
      ensure(false, "fault event expected");
  }
}

/// The fault-path twin of the empty-queue stall check.  Fault cursors
/// keep adding events forever, so under injection the queue never runs
/// dry; instead the run is stuck when the policy was offered every ready
/// task on every processor and assigned nothing: ready work waits, no
/// processor is down, running, reserved or busy with comm work (a stall
/// window counts as comm work), and no task, comm, transfer or arrival
/// event is pending.  Only fault events remain, and none of them adds
/// ready work or frees a processor the policy has not already seen — the
/// same state in which a zero-fault run finds its queue empty.
bool Run::stalled_under_faults() const {
  if (s_.ready_pool.empty()) return false;
  for (ProcId p = 0; p < topology_.num_procs(); ++p) {
    const ProcessorState& proc = s_.machine.proc(p);
    if (!proc.idle_for_scheduling() || proc.active_comm.has_value() ||
        !proc.comm_queue.empty()) {
      return false;
    }
  }
  for (const Event& event : s_.events) {
    switch (event.type) {
      case EventType::TaskDone:
      case EventType::CommDone:
      case EventType::TransferDone:
      case EventType::WorkflowArrival:
        return false;
      default:
        break;
    }
  }
  return true;
}

void Run::record_fault(FaultKind kind, std::int32_t entity) {
  if (options_.record_trace) {
    s_.trace.faults.push_back(FaultRecord{kind, entity, s_.now});
  }
}

/// Returns a killed (running or reserved) task to the ready pool; its
/// records are reset and it is re-assigned at a later epoch.
void Run::restart_task(TaskId task) {
  s_.placement[static_cast<std::size_t>(task)] = kInvalidProc;
  s_.task_started[static_cast<std::size_t>(task)] = false;
  if (options_.record_trace) {
    s_.task_records[static_cast<std::size_t>(task)] = TaskRecord{};
  }
  add_ready(task);
}

/// Abandons the comm job occupying p's CPU mid-crash, accounting the
/// partial segment (the CPU time was genuinely spent).
void Run::drop_active_comm(ProcId p) {
  ProcessorState& proc = s_.machine.proc(p);
  if (!proc.active_comm.has_value()) return;
  const CommJob job = *proc.active_comm;
  const Time start = s_.comm_start[static_cast<std::size_t>(p)];
  if (options_.record_trace && s_.now > start) {
    s_.trace.comm_segments.push_back(
        CommSegment{p, job.kind, job.message, start, s_.now});
  }
  s_.proc_busy[static_cast<std::size_t>(p)] += s_.now - start;
  if (job.kind == CommKind::Stall) {
    s_.total_stall_time += s_.now - start;
  } else {
    s_.total_comm_time += s_.now - start;
  }
  proc.active_comm.reset();
}

void Run::on_machine_down(ProcId p) {
  ProcessorState& proc = s_.machine.proc(p);
  proc.down = true;
  record_fault(FaultKind::MachineDown, p);

  // Kill the task being executed (work done so far is lost; finished
  // tasks' outputs are assumed to survive on stable storage).
  if (proc.running_task != kInvalidTask) {
    const TaskId task = proc.running_task;
    if (proc.task_executing) {
      record_task_span(p, task, proc.segment_start, s_.now,
                       /*completes=*/false);
      s_.proc_busy[static_cast<std::size_t>(p)] +=
          s_.now - proc.segment_start;
      proc.task_executing = false;
    }
    ++proc.task_event_gen;  // invalidate the scheduled completion
    proc.running_task = kInvalidTask;
    proc.task_remaining = 0;
    restart_task(task);
    ++s_.num_task_restarts;
  }

  // Release the reserved task; its undelivered input messages are
  // cancelled (the re-assignment launches fresh ones).
  if (proc.reserved_task != kInvalidTask) {
    const TaskId task = proc.reserved_task;
    proc.reserved_task = kInvalidTask;
    proc.pending_inputs = 0;
    for (MessageState& msg : s_.messages) {
      if (msg.consumer == task && !msg.delivered) msg.cancelled = true;
    }
    restart_task(task);
  }

  // Drop the comm work occupying this CPU; outstanding CommDone events go
  // stale through the generation bump.
  drop_active_comm(p);
  proc.comm_queue.clear();
  ++proc.comm_event_gen;

  s_.epoch_trigger = true;  // surviving procs may pick up the returned work
  push_event(Event{s_.machine_faults[static_cast<std::size_t>(p)].window.end,
                   0, EventType::MachineUp, p, 0, -1});
}

void Run::on_machine_up(ProcId p) {
  ProcessorState& proc = s_.machine.proc(p);
  proc.down = false;
  record_fault(FaultKind::MachineUp, p);
  s_.epoch_trigger = true;  // the repaired processor rejoins the idle pool

  FaultCursor& cursor = s_.machine_faults[static_cast<std::size_t>(p)];
  faults_->advance_machine(cursor);
  push_event(Event{cursor.window.begin, 0, EventType::MachineDown, p, 0,
                   -1});
}

void Run::on_stall_start(ProcId p) {
  FaultCursor& cursor = s_.stall_faults[static_cast<std::size_t>(p)];
  const FaultWindow window = cursor.window;
  if (!s_.machine.proc(p).down) {
    record_fault(FaultKind::Stall, p);
    // A stall occupies the CPU exactly like message handling: it preempts
    // the running task, which resumes when the window ends.
    enqueue_comm(p, CommJob{CommKind::Stall, -1, 0, window.end - window.begin});
  }
  faults_->advance_stall(cursor);
  push_event(Event{cursor.window.begin, 0, EventType::StallStart, p, 0, -1});
}

void Run::on_link_down(ChannelId channel_id) {
  ChannelState& channel = s_.machine.channel(channel_id);
  const FaultWindow window =
      s_.link_faults[static_cast<std::size_t>(channel_id)].window;
  if (window.drop) {
    channel.down = true;
    record_fault(FaultKind::LinkDown, channel_id);
    if (channel.busy && channel.active_message >= 0) {
      // The in-flight transfer is lost; the sender-side timeout recovers
      // it.  The generation bump stales its TransferDone event.
      MessageState& msg =
          s_.messages[static_cast<std::size_t>(channel.active_message)];
      ++msg.transfer_gen;
    }
    channel.busy = false;
    channel.active_message = -1;
  } else {
    channel.degraded = true;
    record_fault(FaultKind::LinkDegrade, channel_id);
    // Transfers already in flight keep their original completion time;
    // transfers *started* inside the window pay the degraded wire time.
  }
  push_event(Event{window.end, 0, EventType::LinkUp, kInvalidProc, 0,
                   static_cast<int>(channel_id)});
}

void Run::on_link_up(ChannelId channel_id) {
  ChannelState& channel = s_.machine.channel(channel_id);
  channel.down = false;
  channel.degraded = false;
  record_fault(FaultKind::LinkUp, channel_id);
  if (!channel.busy) start_next_queued(channel_id);

  FaultCursor& cursor = s_.link_faults[static_cast<std::size_t>(channel_id)];
  faults_->advance_link(cursor);
  push_event(Event{cursor.window.begin, 0, EventType::LinkDown, kInvalidProc,
                   0, static_cast<int>(channel_id)});
}

void Run::on_msg_timeout(int message, std::uint32_t attempt) {
  MessageState& msg = s_.messages[static_cast<std::size_t>(message)];
  // Stale when the attempt was delivered, cancelled, or already replaced.
  if (msg.delivered || msg.cancelled || attempt != msg.attempt) return;
  const int max_attempts = faults_->spec().max_retries + 1;
  if (static_cast<int>(msg.attempt) >= max_attempts) {
    // Retransmission budget exhausted: degrade to a structured failure
    // instead of spinning forever; the run stops at the next loop check.
    if (!s_.failed) {
      s_.failed = true;
      s_.failure = SimFailure{msg.id, msg.producer, msg.consumer,
                              static_cast<int>(msg.attempt), s_.now};
    }
    return;
  }
  push_event(Event{
      s_.now + faults_->backoff_delay(static_cast<int>(msg.attempt) + 1), 0,
      EventType::MsgRetry, kInvalidProc, msg.attempt, message});
}

void Run::on_msg_retry(int message, std::uint32_t attempt) {
  MessageState& msg = s_.messages[static_cast<std::size_t>(message)];
  if (msg.delivered || msg.cancelled || attempt != msg.attempt) return;
  msg.attempt += 1;
  ++msg.transfer_gen;  // supersede every in-flight trace of the old attempt
  msg.hop = 0;
  ++s_.num_retries;
  if (options_.record_trace) {
    s_.trace.retries.push_back(
        RetryRecord{message, static_cast<int>(msg.attempt), s_.now});
  }
  push_event(Event{s_.now + faults_->spec().msg_timeout, 0,
                   EventType::MsgTimeout, kInvalidProc, msg.attempt,
                   message});
  // Retransmission is replayed by the link hardware from the primed
  // output buffer: it does not occupy the producer's CPU again
  // (deliberate simplification, see ARCHITECTURE.md).  A still-down
  // source simply waits for the next timeout.
  if (!s_.machine.proc(msg.src).down) request_transfer(message);
}

void Run::run_epoch(EpochObserver* observer) {
  s_.machine.idle_procs(s_.idle_scratch);
  const std::vector<ProcId>& idle = s_.idle_scratch;
  if (idle.empty() || s_.ready_pool.empty()) return;

  if (observer != nullptr) {
    // Pre-decision snapshot point: the state is entirely determined by
    // the events so far; the policy has not seen this epoch yet.
    const EpochView view(s_, idle);
    observer->on_epoch(view);
  }

  const int index = s_.epoch_count++;
  if (faults_ != nullptr) {
    s_.down_scratch.clear();
    for (ProcId p = 0; p < topology_.num_procs(); ++p) {
      if (s_.machine.proc(p).down) s_.down_scratch.push_back(p);
    }
  }
  const std::span<const TaskId> newly_ready =
      whole_pool_ ? std::span<const TaskId>(s_.ready_pool)
                  : std::span<const TaskId>(newly_ready_);
  whole_pool_ = false;
  EpochContext ctx(s_.now, index, graph_, topology_, comm_, s_.ready_pool,
                   newly_ready, idle, s_.placement, levels_,
                   faults_ != nullptr ? std::span<const ProcId>(s_.down_scratch)
                                      : std::span<const ProcId>(),
                   arrivals_, &s_.assign_scratch);
  policy_.on_epoch(ctx);
  newly_ready_.clear();  // delivered; the next delta starts empty
  if (observer != nullptr) {
    observer->on_epoch_decided(index, ctx.assignments());
  }

  if (options_.record_trace) {
    s_.trace.epochs.push_back(EpochRecord{index, s_.now,
                                          static_cast<int>(
                                              s_.ready_pool.size()),
                                          static_cast<int>(idle.size()),
                                          static_cast<int>(
                                              ctx.assignments().size())});
  }
  for (const Assignment& a : ctx.assignments()) {
    apply_assignment(a.task, a.proc, index);
  }
}

void Run::apply_assignment(TaskId task, ProcId p, int epoch_index) {
  const auto pool_it =
      std::lower_bound(s_.ready_pool.begin(), s_.ready_pool.end(), task);
  ensure(pool_it != s_.ready_pool.end() && *pool_it == task,
         "assignment of a task that is not ready");
  s_.ready_pool.erase(pool_it);

  ProcessorState& proc = s_.machine.proc(p);
  ensure(proc.idle_for_scheduling(), "assignment to a non-idle processor");
  s_.placement[static_cast<std::size_t>(task)] = p;
  proc.reserved_task = task;
  proc.pending_inputs = 0;

  if (options_.record_trace) {
    TaskRecord& record = s_.task_records[static_cast<std::size_t>(task)];
    record.task = task;
    record.proc = p;
    record.epoch = epoch_index;
    record.assigned = s_.now;
  }

  // Launch the input messages; producers already executed, so their
  // placement is known.  Local inputs are free (eq. 4, delta term).
  for (const EdgeRef& pred : graph_.predecessors(task)) {
    const ProcId src = s_.placement[static_cast<std::size_t>(pred.task)];
    ensure(src != kInvalidProc, "ready task with an unplaced predecessor");
    if (!comm_.enabled || src == p) continue;
    launch_message(pred.task, task, pred.weight, src, p);
  }
  try_start_reserved(p);
}

SimResult Run::execute(EpochObserver* observer) {
  std::uint64_t processed = 0;
  while (true) {
    if (s_.epoch_trigger) {
      s_.epoch_trigger = false;
      run_epoch(observer);
    }
    if (s_.finished_count == graph_.num_tasks()) break;
    if (s_.failed) break;  // retry exhaustion: stop gracefully
    const bool queue_dry = s_.events.empty();
    if (queue_dry ||
        (faults_ != nullptr && !s_.epoch_trigger && stalled_under_faults())) {
      throw SimulationError(
          "simulation stalled: " + std::to_string(s_.finished_count) + "/" +
          std::to_string(graph_.num_tasks()) + " tasks finished, " +
          (queue_dry ? "no pending events" : "only fault events pending") +
          " (policy assigned nothing?)");
    }
    // Drain the complete batch of events sharing the next timestamp before
    // scheduling again: simultaneous completions must all be visible to the
    // epoch (processing them one by one would let a premature packet see a
    // partial ready set — and, among other things, would dodge the Graham
    // anomaly by accident).
    const Time batch_time = s_.events.front().time;
    ensure(batch_time >= s_.now, "time went backwards");
    s_.now = batch_time;
    while (!s_.events.empty() && s_.events.front().time == batch_time) {
      if (++processed > options_.max_events) {
        throw SimulationError("event budget exceeded");
      }
      const Event event = s_.events.front();
      detail::event_heap_pop(s_.events);
      // Only the three zero-fault kinds stay in the hot switch; the fault
      // kinds (which never enter the queue without SimOptions::faults)
      // dispatch through one cold, non-inlined handler so the zero-fault
      // event loop keeps its pre-fault code layout.
      switch (event.type) {
        case EventType::TaskDone:
          on_task_done(event.proc, event.gen);
          break;
        case EventType::CommDone:
          on_comm_done(event.proc, event.gen);
          break;
        case EventType::TransferDone:
          on_transfer_done(event.message, event.gen);
          break;
        case EventType::WorkflowArrival:
          on_workflow_arrival(event.message);
          break;
        default:
          handle_fault_event(event);
          break;
      }
      if (s_.failed) break;
    }
  }

  SimResult result;
  result.makespan = s_.makespan;
  result.placement = s_.placement;
  result.num_epochs = s_.epoch_count;
  result.num_messages = static_cast<int>(s_.messages.size());
  result.total_task_time = graph_.total_work();
  result.total_comm_time = s_.total_comm_time;
  result.proc_busy = s_.proc_busy;
  result.failed = s_.failed;
  result.failure = s_.failure;
  result.num_retries = s_.num_retries;
  result.num_task_restarts = s_.num_task_restarts;
  result.total_stall_time = s_.total_stall_time;
  if (arrivals_ != nullptr) {
    // Executed work is the jittered actual durations, not the nominal
    // estimate the scheduler saw.
    if (!arrivals_->actual_duration.empty()) {
      Time actual_work = 0;
      for (const Time d : arrivals_->actual_duration) actual_work += d;
      result.total_task_time = actual_work;
    }
    if (options_.record_trace) {
      const int workflows = arrivals_->num_workflows();
      s_.trace.workflows.reserve(static_cast<std::size_t>(workflows));
      for (int w = 0; w < workflows; ++w) {
        const auto i = static_cast<std::size_t>(w);
        s_.trace.workflows.push_back(WorkflowRecord{
            w, arrivals_->arrival[i], arrivals_->deadline[i],
            arrivals_->weight[i], s_.workflow_completion[i], 0});
      }
      for (const int wf : arrivals_->task_workflow) {
        ++s_.trace.workflows[static_cast<std::size_t>(wf)].num_tasks;
      }
    }
    if (!s_.failed) {
      result.online =
          compute_online_metrics(*arrivals_, s_.workflow_completion);
    }
  }
  if (options_.record_trace) {
    s_.trace.tasks = s_.task_records;
    result.trace = std::move(s_.trace);
  }
  return result;
}

}  // namespace

int EpochView::epoch_index() const { return state_.epoch_count; }
Time EpochView::now() const { return state_.now; }
std::span<const TaskId> EpochView::ready_tasks() const {
  return state_.ready_pool;
}
int EpochView::finished_tasks() const { return state_.finished_count; }

SimCheckpoint EpochView::checkpoint() const { return checkpoint({}); }

SimCheckpoint EpochView::checkpoint(SimCheckpoint recycle) const {
  std::shared_ptr<detail::RunState> buffer;
  if (recycle.state_ != nullptr && recycle.state_.use_count() == 1) {
    // Sole owner of a retired snapshot: copy-assign into its buffers
    // (every container keeps its capacity) instead of deep-allocating.
    // The const cast is sound — all state buffers are born non-const in
    // the make_shared below.
    buffer = std::const_pointer_cast<detail::RunState>(
        std::move(recycle.state_));
    *buffer = state_;
  } else {
    buffer = std::make_shared<detail::RunState>(state_);
  }
  return SimCheckpoint(state_.epoch_count, state_.now, state_.finished_count,
                       std::move(buffer));
}

EpochContext::EpochContext(Time now, int epoch_index, const TaskGraph& graph,
                           const Topology& topology, const CommModel& comm,
                           std::span<const TaskId> ready_tasks,
                           std::span<const TaskId> newly_ready,
                           std::span<const ProcId> idle_procs,
                           const std::vector<ProcId>& placement,
                           const std::vector<Time>& levels,
                           std::span<const ProcId> down_procs,
                           const ArrivalPlan* arrivals,
                           std::vector<Assignment>* assignments_scratch)
    : now_(now),
      epoch_index_(epoch_index),
      graph_(graph),
      topology_(topology),
      comm_(comm),
      ready_tasks_(ready_tasks),
      newly_ready_(newly_ready),
      idle_procs_(idle_procs),
      placement_(placement),
      levels_(levels),
      down_procs_(down_procs),
      arrivals_(arrivals),
      assignments_(assignments_scratch != nullptr ? assignments_scratch
                                                  : &own_assignments_) {
  assignments_->clear();
}

void EpochContext::assign(TaskId task, ProcId proc) {
  const bool task_ready =
      std::binary_search(ready_tasks_.begin(), ready_tasks_.end(), task);
  require(task_ready, "EpochContext::assign: task is not in the ready set");
  const bool proc_idle =
      std::binary_search(idle_procs_.begin(), idle_procs_.end(), proc);
  require(proc_idle, "EpochContext::assign: processor is not idle");
  for (const Assignment& a : *assignments_) {
    require(a.task != task, "EpochContext::assign: task assigned twice");
    require(a.proc != proc, "EpochContext::assign: processor used twice");
  }
  assignments_->push_back(Assignment{task, proc});
}

ExecutionEngine::ExecutionEngine(const TaskGraph& graph,
                                 const Topology& topology,
                                 const CommModel& comm,
                                 SchedulingPolicy& policy, SimOptions options)
    : graph_(graph),
      topology_(topology),
      comm_(comm),
      policy_(policy),
      options_(options),
      levels_(task_levels(graph)),
      routes_(std::make_unique<detail::RouteTable>(topology)) {
  if (options_.faults != nullptr && options_.faults->active()) {
    fault_model_ = std::make_unique<FaultModel>(*options_.faults, topology_);
  }
  if (options_.arrivals != nullptr) options_.arrivals->validate(graph_);
}

ExecutionEngine::~ExecutionEngine() = default;

SimResult ExecutionEngine::run() {
  graph_.validate();
  policy_.on_run_start(graph_, topology_, comm_);
  detail::RunState state(topology_);
  detail::init_state(state, graph_, topology_, fault_model_.get(),
                     options_.arrivals, options_.record_trace);
  std::vector<TaskId> newly_ready;
  Run run(graph_, topology_, comm_, policy_, options_, levels_, *routes_,
          state, fault_model_.get(), options_.arrivals, newly_ready);
  return run.execute(nullptr);
}

ResumableEngine::ResumableEngine(const TaskGraph& graph,
                                 const Topology& topology,
                                 const CommModel& comm,
                                 SchedulingPolicy& policy, SimOptions options)
    : graph_(graph),
      topology_(topology),
      comm_(comm),
      policy_(policy),
      options_(options),
      levels_(task_levels(graph)),
      routes_(std::make_unique<detail::RouteTable>(topology)),
      scratch_(std::make_unique<detail::RunState>(topology)) {
  graph_.validate();
  if (options_.faults != nullptr && options_.faults->active()) {
    fault_model_ = std::make_unique<FaultModel>(*options_.faults, topology_);
  }
  if (options_.arrivals != nullptr) options_.arrivals->validate(graph_);
}

ResumableEngine::~ResumableEngine() = default;

SimResult ResumableEngine::run(EpochObserver* observer) {
  policy_.on_run_start(graph_, topology_, comm_);
  detail::init_state(*scratch_, graph_, topology_, fault_model_.get(),
                     options_.arrivals, options_.record_trace);
  Run run(graph_, topology_, comm_, policy_, options_, levels_, *routes_,
          *scratch_, fault_model_.get(), options_.arrivals, newly_ready_);
  return run.execute(observer);
}

SimResult ResumableEngine::resume(const SimCheckpoint& from,
                                  EpochObserver* observer) {
  require(from.valid(), "ResumableEngine::resume: invalid checkpoint");
  policy_.on_run_start(graph_, topology_, comm_);
  // Buffer-reusing copy; the checkpoint itself stays immutable.  The
  // snapshot was taken inside run_epoch with the trigger already
  // consumed, so re-arm it: the first thing the resumed loop does is
  // re-run the checkpoint's epoch against the (possibly changed) policy.
  *scratch_ = *from.state_;
  scratch_->epoch_trigger = true;
  Run run(graph_, topology_, comm_, policy_, options_, levels_, *routes_,
          *scratch_, fault_model_.get(), options_.arrivals, newly_ready_);
  return run.execute(observer);
}

SimResult simulate(const TaskGraph& graph, const Topology& topology,
                   const CommModel& comm, SchedulingPolicy& policy,
                   SimOptions options) {
  ExecutionEngine engine(graph, topology, comm, policy, options);
  return engine.run();
}

}  // namespace dagsched::sim
