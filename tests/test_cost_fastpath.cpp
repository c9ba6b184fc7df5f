// The flat-table cost model fast path: the precomputed comm/level tables
// must agree exactly with the definitional (input-list-walking) cost, the
// O(1) move_delta must be consistent with full re-evaluation for every
// move kind, apply/revert must be exact inverses, and the annealer's
// bookkeeping-only accept path must never drift from evaluate().

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/annealer.hpp"
#include "core/cost.hpp"
#include "core/mapping.hpp"
#include "core/packet.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"

namespace dagsched::sa {
namespace {

/// A random packet of `n` tasks for the processors of `topology`, with
/// 0..4 inputs per task placed on random processors.
AnnealingPacket random_packet(int n, const Topology& topology, Rng& rng) {
  AnnealingPacket packet;
  for (ProcId p = 0; p < topology.num_procs(); ++p) {
    packet.procs.push_back(p);
  }
  for (int i = 0; i < n; ++i) {
    PacketTask task;
    task.task = i;
    task.level = us(rng.uniform_int(1, 900));
    const int inputs = static_cast<int>(rng.uniform_int(0, 4));
    for (int j = 0; j < inputs; ++j) {
      const Time weight = us(rng.uniform_int(1, 40));
      task.inputs.push_back(PacketTask::Input{
          static_cast<ProcId>(rng.uniform_index(
              static_cast<std::size_t>(topology.num_procs()))),
          weight});
      task.total_input_weight += weight;
    }
    packet.tasks.push_back(std::move(task));
  }
  return packet;
}

/// The definitional eq. 4 comm cost: walk the input list through the
/// *checked* topology/comm APIs, independently of the precomputed table.
double naive_comm_cost(const AnnealingPacket& packet,
                       const Topology& topology, const CommModel& comm,
                       int task_index, int proc_slot) {
  const PacketTask& task = packet.tasks[static_cast<std::size_t>(task_index)];
  const ProcId proc = packet.procs[static_cast<std::size_t>(proc_slot)];
  Time cost = 0;
  for (const PacketTask::Input& input : task.inputs) {
    cost += comm.analytic_cost(input.weight,
                               topology.distance(input.src, proc));
  }
  return to_us(cost);
}

std::vector<int> snapshot(const Mapping& mapping) {
  std::vector<int> slots;
  for (int i = 0; i < mapping.num_tasks(); ++i) {
    slots.push_back(mapping.proc_slot_of(i));
  }
  return slots;
}

TEST(CostFastPath, TableMatchesNaiveCommCost) {
  Rng rng(101);
  for (const Topology& topology :
       {topo::hypercube(3), topo::ring(5), topo::bus(4), topo::line(2)}) {
    const CommModel comm = CommModel::paper_default();
    const AnnealingPacket packet = random_packet(17, topology, rng);
    const PacketCostModel cost(packet, topology, comm, 0.5, 0.5);
    for (int i = 0; i < packet.num_tasks(); ++i) {
      EXPECT_DOUBLE_EQ(cost.task_level_us(i),
                       to_us(packet.tasks[static_cast<std::size_t>(i)].level));
      for (int s = 0; s < packet.num_procs(); ++s) {
        EXPECT_DOUBLE_EQ(cost.task_comm_cost(i, s),
                         naive_comm_cost(packet, topology, comm, i, s))
            << topology.name() << " task " << i << " slot " << s;
      }
    }
  }
}

// The tentpole's exactness guarantee: across thousands of random
// packet/mapping/move triples, the O(1) move_delta must equal the full
// evaluate(after) - evaluate(before) difference within 1e-9, and
// apply+revert must restore the exact mapping, for all three MoveKinds.
TEST(CostFastPath, DeltaConsistencyProperty) {
  Rng rng(2024);
  const CommModel comm = CommModel::paper_default();
  const Topology topologies[] = {topo::hypercube(3), topo::ring(6),
                                 topo::bus(5), topo::line(3)};
  int moves_seen[3] = {0, 0, 0};
  int checked = 0;
  for (int round = 0; round < 120; ++round) {
    const Topology& topology = topologies[round % 4];
    // Mix the three packet shapes: more tasks than processors (Replace
    // moves possible), fewer (Move moves possible), and equal (Swap only).
    const int n = static_cast<int>(rng.uniform_int(1, 20));
    const AnnealingPacket packet = random_packet(n, topology, rng);
    const PacketCostModel cost(packet, topology, comm, 0.5, 0.5);
    Mapping mapping = Mapping::initial(packet, InitKind::Random, rng);

    for (int trial = 0; trial < 40; ++trial) {
      Move move;
      if (!mapping.propose(packet, rng, move)) break;
      const std::vector<int> before_slots = snapshot(mapping);
      const CostBreakdown before = cost.evaluate(mapping);
      const double delta = cost.move_delta(mapping, move);
      const MoveDelta parts = cost.move_parts(move);

      mapping.apply(move);
      const CostBreakdown after = cost.evaluate(mapping);
      ASSERT_NEAR(delta, after.total - before.total, 1e-9)
          << topology.name() << " move kind "
          << static_cast<int>(move.kind);
      ASSERT_NEAR(parts.d_load, after.load - before.load, 1e-9);
      ASSERT_NEAR(parts.d_comm, after.comm - before.comm, 1e-9);

      mapping.revert(move);
      ASSERT_EQ(snapshot(mapping), before_slots)
          << "revert did not restore the mapping (kind "
          << static_cast<int>(move.kind) << ")";

      // Walk the state forward half the time so many mappings are probed.
      if (rng.bernoulli(0.5)) mapping.apply(move);
      ++moves_seen[static_cast<int>(move.kind)];
      ++checked;
    }
  }
  EXPECT_GE(checked, 2000);
  EXPECT_GT(moves_seen[static_cast<int>(MoveKind::Move)], 0);
  EXPECT_GT(moves_seen[static_cast<int>(MoveKind::Swap)], 0);
  EXPECT_GT(moves_seen[static_cast<int>(MoveKind::Replace)], 0);
}

// The accept path is pure bookkeeping (it adds the move_parts components
// instead of recomputing comm costs); the running cost must still agree
// with a from-scratch evaluation of the returned mapping.
TEST(CostFastPath, AcceptPathBookkeepingMatchesEvaluate) {
  Rng rng(7);
  const CommModel comm = CommModel::paper_default();
  for (const Topology& topology : {topo::hypercube(3), topo::ring(4)}) {
    for (const int n : {3, 8, 20}) {
      const AnnealingPacket packet = random_packet(n, topology, rng);
      const PacketCostModel cost(packet, topology, comm, 0.5, 0.5);
      AnnealOptions options;
      options.cooling.max_steps = 40;
      Rng anneal_rng(rng.next_u64());
      const AnnealResult result =
          anneal_packet(packet, cost, options, anneal_rng);
      const CostBreakdown check = cost.evaluate(result.mapping);
      EXPECT_NEAR(result.best_cost.total, check.total, 1e-9);
      EXPECT_NEAR(result.best_cost.load, check.load, 1e-9);
      EXPECT_NEAR(result.best_cost.comm, check.comm, 1e-9);
    }
  }
}

// Trajectory capture must not perturb the annealing stream, and the
// preallocated buffer must record one point per proposed move.
TEST(CostFastPath, TrajectoryCaptureIsNonIntrusive) {
  Rng rng(11);
  const Topology topology = topo::hypercube(3);
  const CommModel comm = CommModel::paper_default();
  const AnnealingPacket packet = random_packet(10, topology, rng);
  const PacketCostModel cost(packet, topology, comm, 0.5, 0.5);
  AnnealOptions options;
  options.cooling.max_steps = 25;

  Rng rng_a(5);
  const AnnealResult plain = anneal_packet(packet, cost, options, rng_a);
  Rng rng_b(5);
  PacketTrajectory trajectory;
  const AnnealResult recorded =
      anneal_packet(packet, cost, options, rng_b, &trajectory);

  EXPECT_EQ(plain.best_cost.total, recorded.best_cost.total);
  EXPECT_EQ(plain.iterations, recorded.iterations);
  EXPECT_EQ(static_cast<int>(trajectory.points.size()),
            recorded.iterations);
  EXPECT_EQ(snapshot(plain.mapping), snapshot(recorded.mapping));
  // The recorded running cost ends at the annealer's final current state;
  // every point's total must re-derive from its own load/comm parts.
  for (const TrajectoryPoint& point : trajectory.points) {
    EXPECT_NEAR(point.total_cost,
                cost.total_of(point.load_cost, point.comm_cost), 1e-9);
  }
}

}  // namespace
}  // namespace dagsched::sa
