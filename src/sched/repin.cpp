#include "sched/repin.hpp"

#include "util/require.hpp"

namespace dagsched::sched {

RepinScheduler::RepinScheduler(std::vector<ProcId> mapping)
    : mapping_(std::move(mapping)) {}

void RepinScheduler::on_run_start(const TaskGraph& graph,
                                  const Topology& topology,
                                  const CommModel&) {
  require(static_cast<int>(mapping_.size()) == graph.num_tasks(),
          "RepinScheduler: mapping size differs from the task count");
  for (const ProcId p : mapping_) {
    require(topology.is_valid_proc(p),
            "RepinScheduler: mapping names a missing processor");
  }
  dispatch_.begin_run(graph.num_tasks(), topology.num_procs());
}

void RepinScheduler::on_epoch(sim::EpochContext& ctx) {
  // Same dispatch priority as PinnedScheduler: level descending, ties
  // toward the lower task id — so the zero-fault replay is bit-identical.
  dispatch_.dispatch(ctx, dispatch_.level_ranks(ctx.levels()), mapping_,
                     /*repin=*/true);
}

}  // namespace dagsched::sched
