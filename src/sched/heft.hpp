#pragma once

// HEFT / PEFT rank-u list scheduling — the strong list-scheduler baselines
// the PISA-style comparisons (Coleman & Krishnamachari, arXiv:2403.07120)
// call for.  Both compute an *offline* plan first and then replay it
// through the discrete-event simulator, so their makespans are measured by
// the same ground truth (contention, preemption, sigma/tau CPU occupancy)
// as every other policy of the sweep.
//
// HEFT [Topcuoglu/Hariri/Wu 2002]: tasks are prioritized by the upward
// rank — rank_u(t) = r_t + max over successors s of (c̄(w_ts) + rank_u(s)),
// with c̄ the eq. 4 communication cost averaged over all ordered processor
// pairs — and placed one by one on the processor minimizing the earliest
// finish time, *insertion-based*: a task may slide into an idle gap between
// two already-scheduled tasks when its inputs arrive early enough.
//
// PEFT [Arabnejad/Barbosa 2014]: replaces the scalar rank with the
// optimistic cost table OCT[t][p] — the cost-to-go of the heaviest
// remaining path if t ran on p and every descendant chose its best
// processor — and places by minimizing EFT(t, p) + OCT[t][p].  Unlike
// HEFT's averaged rank, the OCT sees the actual topology distances, which
// is what makes it the heterogeneity-aware variant (here the heterogeneity
// is the interconnect: per-pair distances, not per-processor speeds).
//
// Placement uses the analytic eq. 4 estimate (like the annealer's cost
// function); the simulator remains the evaluation oracle.  Everything is
// deterministic: ties break toward the lower task id / lower processor id.

#include <vector>

#include "sched/pinned.hpp"
#include "sched/policy.hpp"

namespace dagsched::sched {

/// Which rank/placement rule HeftScheduler and heft_schedule use.
enum class HeftVariant {
  Heft,  ///< upward rank + min-EFT insertion placement
  Peft,  ///< optimistic-cost-table rank + min-(EFT + OCT) placement
};

/// One task of the offline plan.
struct ListScheduleEntry {
  ProcId proc = kInvalidProc;
  Time start = 0;
  Time finish = 0;
};

/// The offline (analytic) schedule: placement order, per-task ranks, and
/// the planned slots.  `makespan` is the *estimated* makespan under eq. 4;
/// the simulated makespan of the replayed plan may differ (the simulator
/// additionally models contention and receive preemption).
struct ListSchedule {
  std::vector<TaskId> priority;          ///< placement order, highest rank first
  std::vector<double> rank;              ///< rank_u (Heft) / mean OCT (Peft), us-free ns scale
  std::vector<ListScheduleEntry> tasks;  ///< indexed by TaskId
  Time makespan = 0;                     ///< max planned finish
};

/// Upward ranks rank_u (HEFT priority): computed against the mean eq. 4
/// communication cost over all ordered processor pairs of `topology`.
/// Zero communication (disabled model or a single processor) degenerates
/// to the classic CP-length-to-leaf rank.
std::vector<double> upward_ranks(const TaskGraph& graph,
                                 const Topology& topology,
                                 const CommModel& comm);

/// PEFT's optimistic cost table: OCT[t][p] is the longest remaining path
/// cost below t if t ran on processor p and every successor chose its
/// cheapest processor.  Exit tasks are all-zero rows.
std::vector<std::vector<Time>> optimistic_cost_table(const TaskGraph& graph,
                                                     const Topology& topology,
                                                     const CommModel& comm);

/// Computes the full offline plan (ranks, placement order, insertion-based
/// slots).  Deterministic; throws std::invalid_argument for an empty graph.
/// `excluded` (optional, indexed by ProcId) masks processors out of the
/// placement loop — the fault-repair path replans around crashed machines
/// this way.  An all-true mask is ignored (there would be nowhere to plan).
ListSchedule heft_schedule(const TaskGraph& graph, const Topology& topology,
                           const CommModel& comm,
                           HeftVariant variant = HeftVariant::Heft,
                           const std::vector<char>* excluded = nullptr);

/// How an offline-plan policy reacts when its planned processor is down
/// (sim::EpochContext::down_procs non-empty; see the registry capability
/// flag `replan_on_fault`).
enum class FaultResponse {
  Wait,    ///< keep the plan; affected tasks wait for the machine to return
  Repin,   ///< re-pin survivors: affected ready tasks take the first free
           ///< idle processor, in plan priority order
  Replan,  ///< recompute the whole plan excluding the down machines
           ///< whenever the down set changes
};

/// The HEFT/PEFT plan replayed as an online policy: on_run_start computes
/// the offline plan, on_epoch assigns each ready task to its planned
/// processor as soon as that processor is idle, dispatching in plan
/// priority order.  Stateless across epochs (each decision is a pure
/// function of the immutable plan and the epoch's ready/idle sets), so the
/// policy honours the sched/policy.hpp contract including checkpoint
/// resume.
class HeftScheduler : public sim::SchedulingPolicy {
 public:
  explicit HeftScheduler(HeftVariant variant = HeftVariant::Heft,
                         FaultResponse on_fault = FaultResponse::Wait);

  void on_run_start(const TaskGraph& graph, const Topology& topology,
                    const CommModel& comm) override;
  void on_epoch(sim::EpochContext& ctx) override;
  std::string name() const override;

  /// The offline plan of the current/most recent run.  Under
  /// FaultResponse::Replan this is the *latest* plan (replans replace it).
  const ListSchedule& plan() const { return plan_; }

  /// The *initial* plan's eq. 4 makespan estimate — stable across mid-run
  /// replans so the reported plan-vs-simulated gap always compares against
  /// what the planner promised before execution started.
  Time planned_makespan() const override { return initial_plan_makespan_; }

 private:
  void rebuild_plan(const std::vector<char>* excluded);

  HeftVariant variant_;
  FaultResponse on_fault_;
  ListSchedule plan_;
  Time initial_plan_makespan_ = 0;
  std::vector<int> priority_pos_;  ///< task -> position in plan_.priority
  std::vector<ProcId> plan_proc_;  ///< task -> planned processor
  PinnedDispatch dispatch_;
  std::vector<char> proc_down_;    ///< per-epoch scratch
  std::vector<char> last_down_;    ///< Replan: down set the plan excludes
  /// Replan needs the instance to recompute the plan mid-run; set in
  /// on_run_start, valid for the duration of the run (engine contract).
  const TaskGraph* graph_ = nullptr;
  const Topology* topology_ = nullptr;
  const CommModel* comm_ = nullptr;
};

}  // namespace dagsched::sched
