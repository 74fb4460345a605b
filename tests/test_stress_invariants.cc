// Long-run stress tests: heavy random traffic across a grid of
// configurations with the LLC invariant sweep executed every period —
// directory/ack consistency, inclusion (private L2 -> directory -> LLC),
// and buffer bounds must hold at all times, not just at the end.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/system.h"
#include "llc/partition.h"
#include "mem/memory_backend.h"
#include "sim/experiment.h"
#include "sim/workload.h"

namespace psllc::core {
namespace {

struct StressParam {
  std::string notation;
  int cores;
  double write_fraction;
  std::uint64_t seed;
};

class StressInvariants : public ::testing::TestWithParam<StressParam> {};

TEST_P(StressInvariants, HoldEveryPeriod) {
  const StressParam& param = GetParam();
  const ExperimentSetup setup = make_paper_setup(param.notation, param.cores);
  System system(setup);
  const int period = system.schedule().slots_per_period();
  std::int64_t checks = 0;
  system.add_slot_observer([&](const SlotEvent& event) {
    if (event.slot_index % period != 0) {
      return;
    }
    ++checks;
    system.llc().check_invariants();
    for (int c = 0; c < param.cores; ++c) {
      ASSERT_TRUE(system.caches(CoreId{c}).check_inclusion());
      // Every privately cached line is recorded as this core's in the
      // directory (which check_invariants in turn ties to the LLC).
      for (LineAddr line : system.caches(CoreId{c}).l2().resident_lines()) {
        ASSERT_TRUE(system.llc().directory().is_shared_by(line, CoreId{c}))
            << "c" << c << " holds line 0x" << std::hex << line
            << " without a directory bit";
      }
    }
  });
  sim::RandomWorkloadOptions workload;
  workload.range_bytes = 32768;
  workload.accesses = 5000;
  workload.write_fraction = param.write_fraction;
  const auto traces = sim::make_disjoint_random_workload(
      param.cores, workload, param.seed);
  for (int c = 0; c < param.cores; ++c) {
    system.set_trace(CoreId{c}, traces[static_cast<std::size_t>(c)]);
  }
  const auto result = system.run(2'000'000'000);
  ASSERT_TRUE(result.all_done);
  EXPECT_GT(checks, 100);
  // Post-run: every L2-resident line is still LLC-resident (inclusion
  // across levels), and no request is left dangling.
  for (int c = 0; c < param.cores; ++c) {
    for (LineAddr line : system.caches(CoreId{c}).l2().resident_lines()) {
      ASSERT_GE(system.llc().find_way(CoreId{c}, line), 0);
    }
    EXPECT_FALSE(system.llc().has_pending_request(CoreId{c}));
    EXPECT_FALSE(system.tracker().has_inflight(CoreId{c}));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StressInvariants,
    ::testing::Values(StressParam{"SS(1,4,4)", 4, 0.5, 101},
                      StressParam{"NSS(1,4,4)", 4, 0.5, 102},
                      StressParam{"SS(2,2,4)", 4, 0.9, 103},
                      StressParam{"NSS(32,2,4)", 4, 0.25, 104},
                      StressParam{"SS(32,4,2)", 2, 0.75, 105},
                      StressParam{"NSS(1,16,4)", 4, 0.5, 106},
                      StressParam{"P(1,2)", 4, 0.5, 107},
                      StressParam{"P(8,2)", 4, 0.9, 108}),
    [](const ::testing::TestParamInfo<StressParam>& info) {
      std::string name = info.param.notation + "_s" +
                         std::to_string(info.param.seed);
      for (char& ch : name) {
        if (ch == '(' || ch == ')' || ch == ',') {
          ch = '_';
        }
      }
      return name;
    });

// Repartitioning under dirty traffic: a way-bounced mode and a restore,
// each draining dirty, privately shared lines. While a drain is active the
// LLC's per-set pending/draining masks and per-entry ack bookkeeping change
// almost every slot, so the sweep runs every slot then (every period
// otherwise) and must hold through both drains and their fences.
TEST(StressInvariantsRepartition, HoldEverySlotWhileDraining) {
  for (const char* notation : {"SS(32,2,4)", "NSS(32,2,4)", "P(8,2)"}) {
    ExperimentSetup setup = make_paper_setup(notation, 4);
    const llc::PartitionMap initial = setup.partitions();
    const Cycle epoch = Cycle{40} * setup.config.slot_width;
    llc::PartitionProgram program(initial);
    program.add_mode(llc::make_way_bounced_map(initial, 2), epoch, {},
                     "bounce");
    program.add_mode(initial, 3 * epoch, {}, "restore");
    setup.program = std::move(program);
    System system(setup);
    const int period = system.schedule().slots_per_period();
    std::int64_t drain_checks = 0;
    system.add_slot_observer([&](const SlotEvent& event) {
      const bool draining = system.llc().transition_active();
      if (!draining && event.slot_index % period != 0) {
        return;
      }
      drain_checks += draining ? 1 : 0;
      system.llc().check_invariants();
    });
    sim::RandomWorkloadOptions workload;
    workload.range_bytes = 16384;
    workload.accesses = 3000;
    workload.write_fraction = 0.8;
    const auto traces = sim::make_disjoint_random_workload(4, workload, 110);
    for (int c = 0; c < 4; ++c) {
      system.set_trace(CoreId{c}, traces[static_cast<std::size_t>(c)]);
    }
    ASSERT_TRUE(system.run(2'000'000'000).all_done) << notation;
    system.llc().check_invariants();
    const llc::LlcStats& stats = system.llc().stats();
    EXPECT_EQ(stats.repartitions, 2) << notation;
    EXPECT_GT(stats.drain_writebacks, 0) << notation;  // dirty lines drained
    EXPECT_GT(stats.drain_back_invals, 0) << notation;
    EXPECT_GT(drain_checks, 50) << notation;
    EXPECT_FALSE(system.llc().transition_active()) << notation;
  }
}

// Write-queue backend under saturated dirty-eviction traffic: a write-heavy
// workload on a one-set shared partition maximizes dirty LLC evictions, all
// funneled through the bounded write queue. The queue must never exceed its
// physical capacity, never lose a write-back (everything queued either
// drained or is still buffered), and — because validate() sized the slot
// against the backend's worst case, and the TDM bus presents at most one
// eviction per slot — never back-pressure the critical path.
TEST(WriteQueueStress, SaturatedDirtyEvictionsStayBoundedAndLossless) {
  ExperimentSetup setup = make_paper_setup("SS(1,4,4)", 4);
  setup.config.dram.backend = mem::MemoryBackendKind::kWriteQueue;
  setup.config.dram.wq_capacity = 2;
  setup.config.validate();
  System system(setup);
  const int period = system.schedule().slots_per_period();
  system.add_slot_observer([&](const SlotEvent& event) {
    if (event.slot_index % period != 0) {
      return;
    }
    const mem::MemoryView memory = system.memory();
    const mem::MemoryCounters& counters = memory.counters();
    ASSERT_LE(memory.pending_queue_depth(), setup.config.dram.wq_capacity);
    ASSERT_EQ(counters.drained_writes + memory.pending_queue_depth(),
              counters.queued_writes);
  });
  sim::RandomWorkloadOptions workload;
  workload.range_bytes = 32768;
  workload.accesses = 5000;
  workload.write_fraction = 0.9;
  const auto traces = sim::make_disjoint_random_workload(4, workload, 109);
  for (int c = 0; c < 4; ++c) {
    system.set_trace(CoreId{c}, traces[static_cast<std::size_t>(c)]);
  }
  ASSERT_TRUE(system.run(2'000'000'000).all_done);
  const mem::MemoryView memory = system.memory();
  const mem::MemoryCounters& counters = memory.counters();
  EXPECT_GT(counters.queued_writes, 1000);  // the workload really saturated
  EXPECT_EQ(counters.queued_writes, counters.writes);
  EXPECT_EQ(counters.drained_writes + memory.pending_queue_depth(),
            counters.queued_writes);
  EXPECT_LE(counters.max_queue_depth, setup.config.dram.wq_capacity);
  // The slot constraint keeps the bus ahead of the drain rate, so the
  // bounded queue never back-pressures inside a valid system.
  EXPECT_EQ(counters.write_stalls, 0);
  EXPECT_LE(counters.max_latency, setup.config.dram.worst_case_latency());
}

// The sweep harness must stay bit-identical across worker-thread counts
// with a stateful memory backend: every system owns a fresh backend, so no
// memory-model state leaks between cells.
TEST(WriteQueueStress, SweepDeterministicAcrossThreadCounts) {
  sim::SweepOptions serial;
  serial.address_ranges = {8192, 32768};
  serial.accesses_per_core = 2000;
  serial.write_fraction = 0.9;
  serial.seed = 77;
  serial.threads = 1;
  serial.dram.backend = mem::MemoryBackendKind::kWriteQueue;
  serial.dram.wq_capacity = 4;
  sim::SweepOptions parallel = serial;
  parallel.threads = 4;
  const std::vector<sim::SweepConfig> configs = {{"SS(1,4,4)", 4},
                                                 {"P(1,2)", 4}};
  const sim::SweepResult a = sim::run_sweep(configs, serial);
  const sim::SweepResult b = sim::run_sweep(configs, parallel);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const sim::RunMetrics& ma = a.cells[i].metrics;
    const sim::RunMetrics& mb = b.cells[i].metrics;
    EXPECT_EQ(ma.makespan, mb.makespan) << "cell " << i;
    EXPECT_EQ(ma.observed_wcl, mb.observed_wcl) << "cell " << i;
    EXPECT_EQ(ma.memory.queued_writes, mb.memory.queued_writes)
        << "cell " << i;
    EXPECT_EQ(ma.memory.drained_writes, mb.memory.drained_writes)
        << "cell " << i;
    EXPECT_EQ(ma.memory.max_queue_depth, mb.memory.max_queue_depth)
        << "cell " << i;
    EXPECT_EQ(ma.memory.max_latency, mb.memory.max_latency) << "cell " << i;
  }
}

}  // namespace
}  // namespace psllc::core
