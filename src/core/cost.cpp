#include "core/cost.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/require.hpp"

namespace dagsched::sa {

PacketCostModel::PacketCostModel(const AnnealingPacket& packet,
                                 const Topology& topology,
                                 const CommModel& comm, double wb, double wc)
    : num_tasks_(packet.num_tasks()),
      num_procs_(packet.num_procs()),
      wb_(wb),
      wc_(wc) {
  require(packet.num_tasks() > 0 && packet.num_procs() > 0,
          "PacketCostModel: empty packet");
  require(wb >= 0.0 && wc >= 0.0, "PacketCostModel: negative weight");
  require(std::fabs(wb + wc - 1.0) < 1e-9,
          "PacketCostModel: wb + wc must equal 1");
  for (const ProcId p : packet.procs) {
    require(topology.is_valid_proc(p), "PacketCostModel: bad packet proc");
  }
  for (const PacketTask& t : packet.tasks) {
    for (const PacketTask::Input& input : t.inputs) {
      require(topology.is_valid_proc(input.src),
              "PacketCostModel: bad input source proc");
    }
  }

  const int k = packet.num_selected();

  // dF_b = (Max - Min) / N_idle over the K highest / lowest levels.
  std::vector<double> levels;
  levels.reserve(packet.tasks.size());
  for (const PacketTask& t : packet.tasks) {
    levels.push_back(to_us(t.level));
  }
  std::sort(levels.begin(), levels.end());
  double min_sum = 0.0;
  double max_sum = 0.0;
  for (int i = 0; i < k; ++i) {
    min_sum += levels[static_cast<std::size_t>(i)];
    max_sum += levels[levels.size() - 1 - static_cast<std::size_t>(i)];
  }
  delta_fb_ = (max_sum - min_sum) / static_cast<double>(packet.num_procs());
  delta_fb_ = std::max(delta_fb_, 1.0);

  // dF_c: the K heaviest communicators priced at the diameter.
  std::vector<Time> weights;
  weights.reserve(packet.tasks.size());
  for (const PacketTask& t : packet.tasks) {
    weights.push_back(t.total_input_weight);
  }
  std::sort(weights.begin(), weights.end(), std::greater<>());
  const int diameter = std::max(topology.diameter(), 1);
  double worst = 0.0;
  for (int i = 0; i < k; ++i) {
    worst += to_us(
        comm.analytic_cost(weights[static_cast<std::size_t>(i)], diameter));
  }
  delta_fc_ = std::max(worst, 1.0);

  load_scale_ = wb_ / delta_fb_;
  comm_scale_ = wc_ / delta_fc_;

  // Flatten everything the inner loop reads into dense tables: per-task
  // levels and the eq. 4 input-message sum of every (task, proc slot)
  // pair, laid out slot-major (one contiguous per-task column per
  // processor slot).
  level_us_.resize(static_cast<std::size_t>(num_tasks_));
  comm_table_.resize(static_cast<std::size_t>(num_tasks_) *
                     static_cast<std::size_t>(num_procs_));
  for (int i = 0; i < num_tasks_; ++i) {
    level_us_[static_cast<std::size_t>(i)] =
        to_us(packet.tasks[static_cast<std::size_t>(i)].level);
  }
  for (int s = 0; s < num_procs_; ++s) {
    const ProcId proc = packet.procs[static_cast<std::size_t>(s)];
    double* column = comm_table_.data() +
                     static_cast<std::size_t>(s) *
                         static_cast<std::size_t>(num_tasks_);
    for (int i = 0; i < num_tasks_; ++i) {
      const PacketTask& task = packet.tasks[static_cast<std::size_t>(i)];
      Time cost = 0;
      for (const PacketTask::Input& input : task.inputs) {
        cost += comm.analytic_cost(
            input.weight, topology.distance_unchecked(input.src, proc));
      }
      column[i] = to_us(cost);
    }
  }
}

CostBreakdown PacketCostModel::evaluate(const Mapping& mapping) const {
  CostBreakdown cost;
  for (int i = 0; i < num_tasks_; ++i) {
    const int slot = mapping.proc_slot_of(i);
    if (slot < 0) continue;
    cost.load -= task_level_us(i);            // eq. 3
    cost.comm += task_comm_cost(i, slot);     // eq. 5
  }
  cost.total = total_of(cost.load, cost.comm);
  return cost;
}

MoveDelta PacketCostModel::move_parts(const Move& move) const {
  MoveDelta delta;
  switch (move.kind) {
    case MoveKind::Move:
      delta.d_comm = task_comm_cost(move.task_a, move.to_proc) -
                     task_comm_cost(move.task_a, move.from_proc);
      break;
    case MoveKind::Swap:
      delta.d_comm = task_comm_cost(move.task_a, move.to_proc) +
                     task_comm_cost(move.task_b, move.from_proc) -
                     task_comm_cost(move.task_a, move.from_proc) -
                     task_comm_cost(move.task_b, move.to_proc);
      break;
    case MoveKind::Replace:
      // task_a enters the selection, task_b leaves it.
      delta.d_load = task_level_us(move.task_b) - task_level_us(move.task_a);
      delta.d_comm = task_comm_cost(move.task_a, move.to_proc) -
                     task_comm_cost(move.task_b, move.to_proc);
      break;
  }
  delta.d_total = total_of(delta.d_load, delta.d_comm);
  return delta;
}

}  // namespace dagsched::sa
