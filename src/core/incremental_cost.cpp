#include "core/incremental_cost.hpp"

#include <algorithm>
#include <cassert>

#include "graph/analysis.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "util/require.hpp"

namespace dagsched::sa {

namespace {

/// Sentinel for "this single-task move has not been priced yet".
constexpr Time kUnpriced = -1;

}  // namespace

std::string to_string(CostOracleKind kind) {
  switch (kind) {
    case CostOracleKind::kFullReplay:
      return "full";
    case CostOracleKind::kIncremental:
      return "incremental";
    case CostOracleKind::kAuto:
      return "auto";
  }
  return "?";
}

CostOracleKind cost_oracle_kind_from_string(const std::string& name) {
  if (name == "full") return CostOracleKind::kFullReplay;
  if (name == "incremental") return CostOracleKind::kIncremental;
  if (name == "auto") return CostOracleKind::kAuto;
  throw std::invalid_argument("unknown cost oracle '" + name +
                              "' (expected 'auto', 'full' or 'incremental')");
}

CostOracleKind resolve_cost_oracle_kind(CostOracleKind kind) {
  if (kind != CostOracleKind::kAuto) return kind;
  const sched::PolicyDescriptor& replay =
      sched::PolicyRegistry::instance().descriptor("pinned");
  return replay.caps.pure_decision ? CostOracleKind::kIncremental
                                   : CostOracleKind::kFullReplay;
}

CostOracleKind resolve_cost_oracle_kind(CostOracleKind kind,
                                        bool faults_active) {
  if (faults_active && kind == CostOracleKind::kAuto) {
    return CostOracleKind::kFullReplay;
  }
  return resolve_cost_oracle_kind(kind);
}

CostOracleStats& CostOracleStats::operator+=(const CostOracleStats& other) {
  proposals += other.proposals;
  noop_moves += other.noop_moves;
  memo_hits += other.memo_hits;
  full_replays += other.full_replays;
  resumed_replays += other.resumed_replays;
  accepts += other.accepts;
  replayed_epochs += other.replayed_epochs;
  baseline_epochs += other.baseline_epochs;
  return *this;
}

// ---------------------------------------------------------------------------
// FullReplayOracle

FullReplayOracle::FullReplayOracle(const TaskGraph& graph,
                                   const Topology& topology,
                                   const CommModel& comm,
                                   const sim::FaultSpec* faults)
    : graph_(graph),
      topology_(topology),
      comm_(comm),
      policy_(std::vector<ProcId>(static_cast<std::size_t>(graph.num_tasks()),
                                  0)) {
  sim_options_.record_trace = false;
  sim_options_.faults = faults;
}

Time FullReplayOracle::replay(const std::vector<ProcId>& mapping) {
  policy_.set_mapping(mapping);
  const sim::SimResult result =
      sim::simulate(graph_, topology_, comm_, policy_, sim_options_);
  ++stats_.full_replays;
  stats_.replayed_epochs += result.num_epochs;
  stats_.baseline_epochs += result.num_epochs;
  if (result.failed) {
    // Retry exhaustion under fault injection: the partial makespan of a
    // failed run would look *cheap* to the annealer.  Price failures above
    // any plausible success instead so the chain steers away from mappings
    // that cannot finish under the injected timelines.
    return graph_.total_work() * 8 + result.makespan;
  }
  return result.makespan;
}

Time FullReplayOracle::reset(const std::vector<ProcId>& mapping) {
  return replay(mapping);
}

Time FullReplayOracle::propose(const std::vector<ProcId>& mapping, TaskId) {
  ++stats_.proposals;
  return replay(mapping);
}

// ---------------------------------------------------------------------------
// IncrementalReplay

/// Observer recording one timeline.  Always stamps per-task first-ready
/// and assignment epochs and (when given a pool) the per-epoch decision
/// records; optionally snapshots stride-aligned state checkpoints.  The
/// pool-with-occupancy scheme reuses the inner vectors' capacity across
/// runs instead of reallocating per run.
class IncrementalReplay::Recorder final : public sim::EpochObserver {
 public:
  /// Decision pool indexed by absolute epoch; grown as needed and never
  /// shrunk, so entries keep their inner-vector capacity across runs.
  /// Entries past the final epoch count go stale — every reader is
  /// bounded by the per-task first-ready/assignment stamps, which always
  /// point into the live prefix.
  std::vector<EpochDecision>* pool = nullptr;
  int base_epoch = 0;  ///< pool[e - base_epoch] holds epoch e

  std::vector<int>* first_ready = nullptr;  ///< stamped with epoch index
  std::vector<int>* assigned = nullptr;     ///< stamped with epoch index

  std::vector<sim::SimCheckpoint>* checkpoints = nullptr;
  /// Retired snapshots whose buffers new checkpoints recycle (optional).
  std::vector<sim::SimCheckpoint>* recycle = nullptr;
  int stride = 1;
  int snapshot_from_epoch = 0;

  void on_epoch(const sim::EpochView& epoch) override {
    const int e = epoch.epoch_index();
    if (first_ready != nullptr) {
      for (const TaskId task : epoch.ready_tasks()) {
        int& stamp = (*first_ready)[static_cast<std::size_t>(task)];
        if (stamp < 0) stamp = e;
      }
    }
    if (pool != nullptr) {
      EpochDecision& d = slot(e);
      d.idle.assign(epoch.idle_procs().begin(), epoch.idle_procs().end());
      d.assignments.clear();
    }
    if (checkpoints != nullptr && e >= snapshot_from_epoch &&
        e % stride == 0) {
      sim::SimCheckpoint reuse;
      if (recycle != nullptr && !recycle->empty()) {
        reuse = std::move(recycle->back());
        recycle->pop_back();
      }
      checkpoints->push_back(epoch.checkpoint(std::move(reuse)));
    }
  }

  void on_epoch_decided(
      int epoch_index,
      std::span<const sim::Assignment> assignments) override {
    if (assigned != nullptr) {
      for (const sim::Assignment& a : assignments) {
        (*assigned)[static_cast<std::size_t>(a.task)] = epoch_index;
      }
    }
    if (pool != nullptr) {
      EpochDecision& d = slot(epoch_index);
      d.assignments.assign(assignments.begin(), assignments.end());
    }
  }

 private:
  EpochDecision& slot(int epoch_index) {
    const auto index = static_cast<std::size_t>(epoch_index - base_epoch);
    while (pool->size() <= index) pool->emplace_back();
    return (*pool)[index];
  }
};

IncrementalReplay::IncrementalReplay(const TaskGraph& graph,
                                     const Topology& topology,
                                     const CommModel& comm,
                                     IncrementalReplayOptions options)
    : graph_(graph),
      topology_(topology),
      comm_(comm),
      options_(options),
      policy_(std::vector<ProcId>(static_cast<std::size_t>(graph.num_tasks()),
                                  0)),
      engine_(graph, topology, comm,
              policy_,
              [] {
                sim::SimOptions o;
                o.record_trace = false;
                return o;
              }()),
      levels_(task_levels(graph)) {
  require(options_.max_checkpoints >= 1,
          "IncrementalReplay: max_checkpoints must be positive");
  require(options_.full_replay_fraction >= 0.0 &&
              options_.full_replay_fraction <= 1.0,
          "IncrementalReplay: full_replay_fraction outside [0, 1]");
  memo_.assign(static_cast<std::size_t>(graph.num_tasks()) *
                   static_cast<std::size_t>(topology.num_procs()),
               kUnpriced);
}

Time IncrementalReplay::reset(const std::vector<ProcId>& mapping) {
  require(static_cast<int>(mapping.size()) == graph_.num_tasks(),
          "IncrementalReplay::reset: mapping size mismatch");
  policy_.set_mapping(mapping);

  // The epoch count of the previous baseline is the best stride estimate
  // available; before the first run, assume roughly one epoch per task.
  const int expected_epochs =
      baseline_valid_ ? baseline_.epoch_count : graph_.num_tasks();
  const int stride = std::max(1, expected_epochs / options_.max_checkpoints);

  const auto n = static_cast<std::size_t>(graph_.num_tasks());
  baseline_.first_ready_epoch.assign(n, -1);
  baseline_.assigned_epoch.assign(n, -1);
  retire_checkpoints(0);

  Recorder recorder;
  recorder.pool = &baseline_.decisions;
  recorder.first_ready = &baseline_.first_ready_epoch;
  recorder.assigned = &baseline_.assigned_epoch;
  recorder.checkpoints = &baseline_.checkpoints;
  recorder.recycle = &checkpoint_pool_;
  recorder.stride = stride;
  const sim::SimResult result = engine_.run(&recorder);

  baseline_valid_ = true;
  baseline_.mapping = mapping;
  baseline_.makespan = result.makespan;
  baseline_.epoch_count = result.num_epochs;
  trial_.valid = false;
  memo_.assign(memo_.size(), kUnpriced);

  ++stats_.full_replays;
  stats_.replayed_epochs += result.num_epochs;
  stats_.baseline_epochs += result.num_epochs;
  return result.makespan;
}

int IncrementalReplay::divergence_epoch(const std::vector<ProcId>& mapping,
                                        TaskId moved) {
  // `moved` sits in the ready pool over a contiguous epoch range — it
  // enters once and leaves when assigned — and only epochs in that range
  // can decide differently (the rule reads mapping[t] for ready tasks
  // only, and every other task's target is unchanged).  Within the
  // range, the decisions preceding `moved` in priority order are
  // untouched, so the epoch's outcome differs from the record iff
  //  * the epoch is `last`, where the baseline placed `moved`; or
  //  * `moved` now captures new_proc: new_proc is idle and not consumed
  //    by a higher-priority assignment of the record.
  const int first =
      baseline_.first_ready_epoch[static_cast<std::size_t>(moved)];
  const int last = baseline_.assigned_epoch[static_cast<std::size_t>(moved)];
  ensure(first >= 0 && last >= first,
         "IncrementalReplay: missing ready/assignment stamps");
  const ProcId new_proc = mapping[static_cast<std::size_t>(moved)];
  const Time moved_level = levels_[static_cast<std::size_t>(moved)];
  const auto outranks_moved = [&](TaskId task) {
    const Time level = levels_[static_cast<std::size_t>(task)];
    if (level != moved_level) return level > moved_level;
    return task < moved;
  };
  for (int e = first; e < last; ++e) {
    const EpochDecision& d =
        baseline_.decisions[static_cast<std::size_t>(e)];
    if (!std::binary_search(d.idle.begin(), d.idle.end(), new_proc)) {
      continue;
    }
    // At most one recorded assignment targets new_proc; `moved` captures
    // the processor unless that assignment outranks it.
    bool captured = true;
    for (const sim::Assignment& a : d.assignments) {
      if (a.proc != new_proc) continue;
      captured = !outranks_moved(a.task);
      break;
    }
    if (captured) return e;
  }
  return last;
}

int IncrementalReplay::resume_checkpoint_index(int damage_epoch) const {
  // Last checkpoint with epoch_index <= damage_epoch (they are ascending).
  const auto& cps = baseline_.checkpoints;
  auto it = std::upper_bound(cps.begin(), cps.end(), damage_epoch,
                             [](int epoch, const sim::SimCheckpoint& cp) {
                               return epoch < cp.epoch_index();
                             });
  if (it == cps.begin()) return -1;
  const int index = static_cast<int>(it - cps.begin()) - 1;
  // Fallback: a resume point in the first sliver of the timeline is a
  // full replay plus a state copy — skip the copy.
  const double min_epoch =
      options_.full_replay_fraction *
      static_cast<double>(baseline_.epoch_count);
  if (static_cast<double>(
          cps[static_cast<std::size_t>(index)].epoch_index()) < min_epoch) {
    return -1;
  }
  return index;
}

Time IncrementalReplay::price(const std::vector<ProcId>& mapping,
                              int resume_index, int divergence) {
  // Rejected proposals are the common case, so pricing records nothing:
  // resume, simulate, read the makespan.  Only accept() re-runs with
  // recording on.
  policy_.set_mapping(mapping);
  sim::SimResult result;
  if (resume_index < 0) {
    result = engine_.run(nullptr);
    ++stats_.full_replays;
    stats_.replayed_epochs += result.num_epochs;
  } else {
    const sim::SimCheckpoint& cp =
        baseline_.checkpoints[static_cast<std::size_t>(resume_index)];
    result = engine_.resume(cp, nullptr);
    ++stats_.resumed_replays;
    stats_.replayed_epochs += result.num_epochs - cp.epoch_index();
  }
  trial_.makespan = result.makespan;
  trial_.divergence = divergence;
  trial_.resume_index = resume_index;
  return result.makespan;
}

void IncrementalReplay::retire_checkpoints(std::size_t keep) {
  auto& cps = baseline_.checkpoints;
  for (std::size_t i = keep; i < cps.size(); ++i) {
    checkpoint_pool_.push_back(std::move(cps[i]));
  }
  cps.resize(keep);
}

void IncrementalReplay::rebuild_baseline(int resume_index) {
  // Re-run the accepted mapping with recording on and splice the suffix
  // into the cached timeline.  Decision records write straight into
  // baseline_.decisions at their absolute epoch index (the prefix
  // entries are untouched); stamps merge below; checkpoints re-record
  // past the resume epoch.
  policy_.set_mapping(trial_.mapping);
  const auto n = static_cast<std::size_t>(graph_.num_tasks());
  scratch_ready_.assign(n, -1);
  scratch_assigned_.assign(n, -1);
  const int stride =
      std::max(1, baseline_.epoch_count / options_.max_checkpoints);

  Recorder recorder;
  recorder.pool = &baseline_.decisions;
  recorder.first_ready = &scratch_ready_;
  recorder.assigned = &scratch_assigned_;
  recorder.checkpoints = &baseline_.checkpoints;
  recorder.recycle = &checkpoint_pool_;
  recorder.stride = stride;

  int resume_epoch = 0;
  sim::SimResult result;
  if (resume_index < 0) {
    retire_checkpoints(0);
    result = engine_.run(&recorder);
    ++stats_.full_replays;
    stats_.replayed_epochs += result.num_epochs;
  } else {
    // Copy, not reference: the truncation below would invalidate it.
    // (The copy shares state with the kept prefix entry, so its buffers
    // are never recycled out from under the resume.)
    const sim::SimCheckpoint cp =
        baseline_.checkpoints[static_cast<std::size_t>(resume_index)];
    resume_epoch = cp.epoch_index();
    retire_checkpoints(static_cast<std::size_t>(resume_index) + 1);
    recorder.base_epoch = 0;  // decisions index by absolute epoch
    recorder.snapshot_from_epoch = resume_epoch + 1;
    result = engine_.resume(cp, &recorder);
    ++stats_.resumed_replays;
    stats_.replayed_epochs += result.num_epochs - resume_epoch;
  }
  ensure(result.makespan == trial_.makespan,
         "IncrementalReplay: accept re-run diverged from the proposal");

  // Merge stamps: epochs strictly before the resume epoch belong to the
  // shared prefix; later ones come from the re-run.
  for (std::size_t t = 0; t < n; ++t) {
    const int old_ready = baseline_.first_ready_epoch[t];
    if (old_ready < 0 || old_ready >= resume_epoch) {
      ensure(scratch_ready_[t] >= 0,
             "IncrementalReplay: unstamped ready epoch after accept");
      baseline_.first_ready_epoch[t] = scratch_ready_[t];
    }
    const int old_assigned = baseline_.assigned_epoch[t];
    if (old_assigned < 0 || old_assigned >= resume_epoch) {
      ensure(scratch_assigned_[t] >= 0,
             "IncrementalReplay: unstamped assignment epoch after accept");
      baseline_.assigned_epoch[t] = scratch_assigned_[t];
    }
  }

  baseline_.makespan = result.makespan;
  baseline_.epoch_count = result.num_epochs;
}

Time IncrementalReplay::propose(const std::vector<ProcId>& mapping,
                                TaskId moved) {
  require(baseline_valid_, "IncrementalReplay::propose before reset");
  require(static_cast<int>(mapping.size()) == graph_.num_tasks(),
          "IncrementalReplay::propose: mapping size mismatch");
  ++stats_.proposals;
  stats_.baseline_epochs += baseline_.epoch_count;

#ifndef NDEBUG
  // The single-move contract: everything but `moved` matches the
  // baseline.  moved == kInvalidTask waives the contract entirely (the
  // proposal takes the full-replay path below).
  if (moved != kInvalidTask) {
    for (std::size_t t = 0; t < mapping.size(); ++t) {
      // LINT-ALLOW(bare-assert): O(n) contract sweep per proposal; deliberately debug-only by design
      assert(static_cast<TaskId>(t) == moved ||
             mapping[t] == baseline_.mapping[t]);
    }
  }
#endif

  trial_.mapping = mapping;
  trial_.moved = moved;
  trial_.valid = true;

  // Empty damage frontier: the proposal *is* the baseline.
  if (moved != kInvalidTask &&
      mapping[static_cast<std::size_t>(moved)] ==
          baseline_.mapping[static_cast<std::size_t>(moved)]) {
    ++stats_.noop_moves;
    trial_.noop = true;
    trial_.memoized = false;
    trial_.makespan = baseline_.makespan;
    return baseline_.makespan;
  }
  trial_.noop = false;

  // Exact memo: the same single-task move against the same baseline has
  // the same (deterministic) makespan.
  const std::size_t memo_key =
      moved == kInvalidTask
          ? 0
          : static_cast<std::size_t>(moved) *
                    static_cast<std::size_t>(topology_.num_procs()) +
                static_cast<std::size_t>(
                    mapping[static_cast<std::size_t>(moved)]);
  if (moved != kInvalidTask && memo_[memo_key] != kUnpriced) {
    ++stats_.memo_hits;
    trial_.memoized = true;
    trial_.makespan = memo_[memo_key];
    return trial_.makespan;
  }
  trial_.memoized = false;

  int divergence = 0;
  int resume_index = -1;
  if (moved != kInvalidTask) {
    divergence = divergence_epoch(mapping, moved);
    resume_index = resume_checkpoint_index(divergence);
  }
  const Time makespan = price(mapping, resume_index, divergence);
  if (moved != kInvalidTask) memo_[memo_key] = makespan;
  return makespan;
}

void IncrementalReplay::accept() {
  require(trial_.valid, "IncrementalReplay::accept without a proposal");
  ++stats_.accepts;

  if (trial_.noop) {
    // The timeline is untouched; even the memo stays valid.
    baseline_.mapping = trial_.mapping;
    trial_.valid = false;
    return;
  }

  if (trial_.memoized) {
    // The memo answered this proposal without a simulation; recompute
    // the resume point for the recording re-run below.
    const Time memoized = trial_.makespan;
    trial_.divergence = divergence_epoch(trial_.mapping, trial_.moved);
    trial_.resume_index = resume_checkpoint_index(trial_.divergence);
    trial_.makespan = memoized;
  }

  rebuild_baseline(trial_.resume_index);
  baseline_.mapping = trial_.mapping;
  memo_.assign(memo_.size(), kUnpriced);
  trial_.valid = false;
}

// ---------------------------------------------------------------------------

std::unique_ptr<CostOracle> make_cost_oracle(CostOracleKind kind,
                                             const TaskGraph& graph,
                                             const Topology& topology,
                                             const CommModel& comm,
                                             const sim::FaultSpec* faults) {
  const bool faults_active = faults != nullptr && faults->active();
  switch (resolve_cost_oracle_kind(kind, faults_active)) {
    case CostOracleKind::kFullReplay:
      return std::make_unique<FullReplayOracle>(
          graph, topology, comm, faults_active ? faults : nullptr);
    case CostOracleKind::kIncremental:
      if (faults_active) {
        throw std::invalid_argument(
            "make_cost_oracle: the incremental oracle is unsound under "
            "fault injection (fault timelines are anchored to absolute "
            "simulation time, so checkpoint divergence is not move-local); "
            "use 'full' or 'auto'");
      }
      return std::make_unique<IncrementalReplay>(graph, topology, comm);
    case CostOracleKind::kAuto:
      break;  // resolve_cost_oracle_kind never returns kAuto
  }
  throw std::invalid_argument("make_cost_oracle: unknown kind");
}

}  // namespace dagsched::sa
