#pragma once

// Highest Level First list scheduling — the paper's baseline (§1, §6;
// Adam/Chandy/Dickinson found HLF within 5% of optimal on almost all of 900
// random taskgraphs when communication is free).
//
// At each epoch the ready tasks are ordered by decreasing level n_i and the
// min(N, N_idle) highest-level tasks are assigned.  HLF itself does not say
// *which* idle processor a task gets — the paper calls it "the arbitrary
// placement of the HLF-tasks" — so the placement rule is a parameter:
//   FirstIdle — lowest-numbered idle processor (deterministic arbitrary;
//               the Table 2 baseline);
//   Random    — uniformly random idle processor (seeded);
//   MinComm   — idle processor minimizing the analytic incoming
//               communication cost (a communication-aware HLF used as an
//               ablation; not part of the paper's baseline).

#include <cstdint>
#include <vector>

#include "sched/policy.hpp"

namespace dagsched::sched {

enum class HlfPlacement { FirstIdle, Random, MinComm };

class HlfScheduler : public sim::SchedulingPolicy {
 public:
  explicit HlfScheduler(HlfPlacement placement = HlfPlacement::FirstIdle,
                        std::uint64_t seed = 1);

  void on_epoch(sim::EpochContext& ctx) override;
  std::string name() const override;

 private:
  HlfPlacement placement_;
  std::uint64_t seed_;
  std::uint64_t draw_state_;
  ReadyIndex<Time> ready_;     ///< one lane, key -level
  std::vector<TaskId> order_;  ///< per-epoch scratch
  std::vector<ProcId> free_;   ///< per-epoch scratch

  void on_run_start(const TaskGraph& graph, const Topology&,
                    const CommModel&) override;
};

}  // namespace dagsched::sched
