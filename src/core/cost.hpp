#pragma once

// The annealing cost function (paper §4.2).
//
// For a packet mapping m:
//   load term  (eq. 3):  F_b = - sum_i n_i s(i)       [selected task levels]
//   comm term  (eq. 4/5): F_c = sum over selected tasks of the analytic
//                          cost c_ij of every input message
//   total      (eq. 6):  F = w_c F_c / dF_c + w_b F_b / dF_b
// with ranges
//   dF_b = (Max - Min) / N_idle, Max/Min the cumulative level sums of the
//          K highest / lowest-level candidates (K = min(N, N_idle));
//   dF_c = the K largest input weights priced at the topology diameter
//          ("placing the tasks with the highest communication at the
//          largest distance").
// Both ranges are guarded to at least one microsecond-equivalent so the
// normalization is well defined for degenerate packets.
//
// The model is *flat*: the constructor walks every (task, processor slot)
// pair once and bakes the eq. 4 input-message sums into a dense
// num_procs x num_tasks table, and the task levels into a parallel array.
// Every hot-path query — task_comm_cost, task_level_us, move_delta — is a
// pure array lookup afterwards (bounds are debug assertions, not checked
// branches), so the annealer's inner loop does no input-list walks, no
// routed-distance derivations and no allocation.
//
// The comm table is laid out slot-major: each processor slot owns one
// contiguous column of per-task costs (comm_table_[slot * T + task]).
// The model owns its tables and keeps no reference to the
// packet/topology/comm it was built from, so it is freely copyable and
// safe to share across threads.

#include <cassert>
#include <vector>

#include "core/mapping.hpp"
#include "core/packet.hpp"
#include "topology/comm_model.hpp"
#include "topology/topology.hpp"

namespace dagsched::sa {

/// Raw (unnormalized) cost components of a mapping, in microseconds.
struct CostBreakdown {
  double load = 0.0;   ///< F_b (negative: better selections are lower)
  double comm = 0.0;   ///< F_c (non-negative)
  double total = 0.0;  ///< eq. 6 normalized weighted sum
};

/// Raw components of one move's cost difference, so the annealer's accept
/// path can update its running CostBreakdown without recomputing anything.
struct MoveDelta {
  double d_load = 0.0;  ///< change of F_b (us)
  double d_comm = 0.0;  ///< change of F_c (us)
  double d_total = 0.0; ///< change of the eq. 6 normalized cost
};

class PacketCostModel {
 public:
  /// wb + wc should be 1 (checked).  Precomputes the dense comm-cost and
  /// level tables; the packet/topology/comm arguments are only read during
  /// construction and need not outlive the model.
  PacketCostModel(const AnnealingPacket& packet, const Topology& topology,
                  const CommModel& comm, double wb, double wc);

  /// Full evaluation of a mapping (used by tests and trajectory capture;
  /// the annealer uses move_delta for the inner loop).
  CostBreakdown evaluate(const Mapping& mapping) const;

  /// Exact cost difference of applying `move` to `mapping`, split into its
  /// raw load/comm components plus the normalized total (eq. 6 units).
  /// O(1): three table lookups at most.
  MoveDelta move_parts(const Move& move) const;

  /// Exact total-cost difference of applying `move` to `mapping`
  /// (eq. 6 units); equivalent to move_parts(move).d_total.
  double move_delta(const Mapping& mapping, const Move& move) const {
    (void)mapping;  // the move carries all slot information it needs
    return move_parts(move).d_total;
  }

  /// eq. 4 comm cost (us) of placing packet task `task_index` on the
  /// processor in slot `proc_slot`.  A single table lookup.
  double task_comm_cost(int task_index, int proc_slot) const {
    // LINT-ALLOW(bare-assert): inner-loop table lookup; the move-delta kernel calls this per candidate
    assert(task_index >= 0 && task_index < num_tasks_);
    // LINT-ALLOW(bare-assert): inner-loop table lookup; the move-delta kernel calls this per candidate
    assert(proc_slot >= 0 && proc_slot < num_procs_);
    return comm_table_[static_cast<std::size_t>(proc_slot) *
                           static_cast<std::size_t>(num_tasks_) +
                       static_cast<std::size_t>(task_index)];
  }

  /// Level of packet task `task_index` in microseconds.
  double task_level_us(int task_index) const {
    // LINT-ALLOW(bare-assert): inner-loop table lookup on the annealer's per-move path
    assert(task_index >= 0 && task_index < num_tasks_);
    return level_us_[static_cast<std::size_t>(task_index)];
  }

  /// eq. 6: the normalized total for raw load/comm components (us).
  double total_of(double load_us, double comm_us) const {
    return comm_scale_ * comm_us + load_scale_ * load_us;
  }

  int num_tasks() const { return num_tasks_; }
  int num_procs() const { return num_procs_; }
  double delta_fb() const { return delta_fb_; }
  double delta_fc() const { return delta_fc_; }
  double wb() const { return wb_; }
  double wc() const { return wc_; }

 private:
  int num_tasks_ = 0;
  int num_procs_ = 0;
  double wb_;
  double wc_;
  double delta_fb_ = 1.0;
  double delta_fc_ = 1.0;
  double load_scale_ = 0.0;  ///< wb / dF_b
  double comm_scale_ = 0.0;  ///< wc / dF_c
  /// Slot-major eq. 4 sums: num_procs contiguous columns of
  /// num_tasks doubles each; entry [slot * num_tasks + task], in us.
  std::vector<double> comm_table_;
  std::vector<double> level_us_;    ///< per-task level (us)
};

}  // namespace dagsched::sa
