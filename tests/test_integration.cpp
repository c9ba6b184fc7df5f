// End-to-end integration: the paper's qualitative claims asserted as
// tests, across the full pipeline (workload -> topology -> policy ->
// simulator -> validator -> comparison).

#include <ostream>

#include <gtest/gtest.h>

#include "core/sa_scheduler.hpp"
#include "graph/analysis.hpp"
#include "report/experiment.hpp"
#include "schedule_checks.hpp"
#include "topology/builders.hpp"
#include "workloads/registry.hpp"

namespace dagsched {
namespace {

struct Cell {
  const char* program;
  const char* topo_spec;
};

// Print the cell by value so the test names CTest registers do not carry
// the (address-randomised) bytes of the string pointers.
void PrintTo(const Cell& cell, std::ostream* os) {
  *os << cell.program << " on " << cell.topo_spec;
}

class PaperGrid : public ::testing::TestWithParam<Cell> {};

TEST_P(PaperGrid, SpeedupsAreWithinPhysicalBounds) {
  const auto [program, topo_spec] = GetParam();
  const workloads::Workload w = workloads::by_name(program);
  const Topology topology = topo::by_name(topo_spec);
  const GraphStats stats = compute_stats(w.graph);
  report::CompareOptions options;
  options.sa_seeds = 2;

  for (const bool with_comm : {false, true}) {
    const CommModel comm = with_comm ? CommModel::paper_default()
                                     : CommModel::disabled();
    const report::ComparisonRow row =
        report::compare_sa_hlf(program, w.graph, topology, comm, options);
    for (const double sp : {row.sa_speedup, row.hlf_speedup}) {
      EXPECT_GT(sp, 1.0) << program << " on " << topo_spec;
      EXPECT_LE(sp, std::min(stats.max_speedup,
                             static_cast<double>(topology.num_procs())) +
                        1e-9);
    }
    // Communication can only hurt.
    if (with_comm) {
      const report::ComparisonRow free_row = report::compare_sa_hlf(
          program, w.graph, topology, CommModel::disabled(), options);
      EXPECT_LE(row.sa_speedup, free_row.sa_speedup + 1e-9);
      EXPECT_LE(row.hlf_speedup, free_row.hlf_speedup + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, PaperGrid,
    ::testing::Values(Cell{"NE", "hypercube8"}, Cell{"NE", "bus8"},
                      Cell{"NE", "ring9"}, Cell{"GJ", "hypercube8"},
                      Cell{"GJ", "bus8"}, Cell{"GJ", "ring9"},
                      Cell{"FFT", "hypercube8"}, Cell{"FFT", "bus8"},
                      Cell{"FFT", "ring9"}, Cell{"MM", "hypercube8"},
                      Cell{"MM", "bus8"}, Cell{"MM", "ring9"}),
    [](const ::testing::TestParamInfo<Cell>& info) {
      return std::string(info.param.program) + "_" +
             info.param.topo_spec;
    });

TEST(Table2Shape, SaNeverLosesWithComm) {
  // The paper's central result: with communication, SA's best-of-seeds
  // beats HLF on every (program, architecture) cell.
  report::CompareOptions options;
  options.sa_seeds = 3;
  for (const report::ComparisonRow& row : report::table2_sweep(options)) {
    if (row.with_comm) {
      EXPECT_GT(row.sa_speedup, row.hlf_speedup)
          << row.program << " on " << row.topology;
    } else {
      // Without communication SA matches HLF within 2%.
      EXPECT_NEAR(row.sa_speedup, row.hlf_speedup,
                  0.02 * row.hlf_speedup)
          << row.program << " on " << row.topology;
    }
  }
}

TEST(Table2Shape, BusBeatsRingUnderCommForEveryProgram) {
  // Distance-1 crossbar vs diameter-4 ring: routing and extra wire hops
  // make the ring strictly worse under the paper's comm model.
  report::CompareOptions options;
  options.sa_seeds = 2;
  for (const char* program : {"NE", "GJ", "FFT", "MM"}) {
    const workloads::Workload w = workloads::by_name(program);
    const CommModel comm = CommModel::paper_default();
    const auto bus_row = report::compare_sa_hlf(program, w.graph,
                                                topo::bus(8), comm, options);
    const auto ring_row = report::compare_sa_hlf(
        program, w.graph, topo::ring(9), comm, options);
    EXPECT_GT(bus_row.hlf_speedup * 1.001, ring_row.hlf_speedup * 8.0 / 9.0)
        << program;  // normalized per processor count
  }
}

TEST(Table2Shape, NeGainsGrowWithDiameter) {
  // NE's chain structure makes it the most placement-sensitive program:
  // the SA-over-HLF gain on the ring (diameter 4) must exceed the gain on
  // the bus (diameter 1) — the paper's 52.8% vs 11.5% pattern.
  const workloads::Workload w = workloads::by_name("NE");
  const CommModel comm = CommModel::paper_default();
  report::CompareOptions options;
  options.sa_seeds = 3;
  const auto bus_row =
      report::compare_sa_hlf("NE", w.graph, topo::bus(8), comm, options);
  const auto ring_row =
      report::compare_sa_hlf("NE", w.graph, topo::ring(9), comm, options);
  EXPECT_GT(ring_row.gain_pct(), bus_row.gain_pct());
}

TEST(FullPipeline, EveryTable2CellValidates) {
  // Re-run one SA seed per cell with tracing enabled and machine-check the
  // schedule.
  for (const workloads::Workload& w : workloads::paper_programs()) {
    for (const Topology& topology :
         {topo::hypercube(3), topo::bus(8), topo::ring(9)}) {
      for (const bool with_comm : {false, true}) {
        const CommModel comm = with_comm ? CommModel::paper_default()
                                         : CommModel::disabled();
        sa::SaScheduler scheduler;
        const sim::SimResult result =
            sim::simulate(w.graph, topology, comm, scheduler);
        EXPECT_TRUE(schedule_is_valid(w.graph, topology, comm, result))
            << w.graph.name() << " on " << topology.name()
            << (with_comm ? " with comm" : " w/o comm");
      }
    }
  }
}

TEST(FullPipeline, MessagesOnlyBetweenDistinctProcessors) {
  const workloads::Workload w = workloads::by_name("GJ");
  sa::SaScheduler scheduler;
  const sim::SimResult result = sim::simulate(
      w.graph, topo::hypercube(3), CommModel::paper_default(), scheduler);
  for (const sim::MessageRecord& msg : result.trace.messages) {
    EXPECT_NE(msg.src, msg.dst);
    EXPECT_EQ(result.placement[static_cast<std::size_t>(msg.producer)],
              msg.src);
    EXPECT_EQ(result.placement[static_cast<std::size_t>(msg.consumer)],
              msg.dst);
    EXPECT_GE(msg.delivered, msg.launched);
  }
}

TEST(FullPipeline, PacketRegimeResemblesPaper) {
  // §6a: "95 tasks ... assigned in 65 annealing packets.  On the average
  // there are 15 candidates for 1.46 free processors."  Our epoch regime
  // differs in detail but must be in the same family: packets on the order
  // of the task count, a small number of free processors per packet, and
  // multiple candidates competing.
  const workloads::Workload w = workloads::by_name("NE");
  sa::SaScheduler scheduler;
  sim::simulate(w.graph, topo::hypercube(3), CommModel::paper_default(),
                scheduler);
  const sa::SaRunStats& stats = scheduler.stats();
  EXPECT_GE(stats.packets, 40);
  EXPECT_LE(stats.packets, 95);
  EXPECT_GE(stats.mean_candidates(), 2.0);
  EXPECT_LE(stats.mean_idle_procs(), 4.0);
}

}  // namespace
}  // namespace dagsched
