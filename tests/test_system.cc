// End-to-end tests of the System slot engine: hit latencies, miss timing,
// the private-partition WCL bound, write-back draining, and bookkeeping.
#include <gtest/gtest.h>

#include "core/system.h"
#include "core/wcl_analysis.h"
#include "sim/workload.h"

namespace psllc::core {
namespace {

Addr line_addr(LineAddr line) { return line * 64; }

ExperimentSetup private_setup(int cores, int sets, int ways) {
  return make_paper_setup(PartitionNotation{
                              PartitionNotation::Kind::kPrivate, sets, ways,
                              cores},
                          cores);
}

TEST(System, SingleCoreMissCompletesInItsNextSlot) {
  auto setup = private_setup(1, 8, 2);
  setup.config.keep_request_records = true;
  System system(setup);
  system.set_trace(CoreId{0}, Trace{MemOp{line_addr(0x10)}});
  const auto result = system.run(100000);
  ASSERT_TRUE(result.all_done);
  const auto& records = system.tracker().records();
  ASSERT_EQ(records.size(), 1u);
  // Issue at cycle 11 (L1+L2 tag checks) -> not eligible for slot 0 -> first
  // presented in slot 1 (start 50) -> fill completes at 100.
  EXPECT_EQ(records[0].issued, 11);
  EXPECT_EQ(records[0].first_presented, 50);
  EXPECT_EQ(records[0].completed, 100);
  EXPECT_EQ(records[0].service_latency(), 50);
  EXPECT_EQ(records[0].presentations, 1);
}

TEST(System, L1AndL2HitLatencies) {
  auto setup = private_setup(1, 8, 2);
  System system(setup);
  // Same line twice: miss then L1 hit. A third access to another line in
  // the same L2 set exercises the L2 path after an L1 conflict... keep it
  // simple: the second access must hit L1.
  system.set_trace(CoreId{0}, Trace{MemOp{line_addr(0x10)},
                                    MemOp{line_addr(0x10)}});
  const auto result = system.run(100000);
  ASSERT_TRUE(result.all_done);
  const auto& caches = system.caches(CoreId{0});
  EXPECT_EQ(caches.l1_hits(), 1);
  EXPECT_EQ(caches.misses(), 1);
  // Finish: response at 100, L1 hit costs 1 cycle.
  EXPECT_EQ(system.finish_time(CoreId{0}), 101);
}

TEST(System, PrivatePartitionSelfEvictionMatchesDerivedBound) {
  // P(1,2): three distinct lines map to the core's single partition set;
  // the third request evicts a line the core still caches privately ->
  // forced write-back by the core itself -> the (2N+1)-slot critical path.
  auto setup = private_setup(4, 1, 2);
  setup.config.keep_request_records = true;
  System system(setup);
  system.set_trace(CoreId{0}, Trace{MemOp{line_addr(0x10)},
                                    MemOp{line_addr(0x20)},
                                    MemOp{line_addr(0x30)}});
  const auto result = system.run(1000000);
  ASSERT_TRUE(result.all_done);
  const auto& summary = system.tracker().service_latency(CoreId{0});
  ASSERT_EQ(summary.count(), 3);
  const Cycle bound = wcl_private_cycles(4, setup.config.slot_width);
  EXPECT_EQ(bound, 450);
  EXPECT_LE(summary.max(), bound);
  // The third request hits the full critical path exactly.
  EXPECT_EQ(summary.max(), 450);
}

TEST(System, DirtyVictimGeneratesVoluntaryWriteback) {
  // Five stores to lines sharing one L2 set (16 sets, stride 0x100 lines)
  // overflow the 4-way L2; the LLC partition (32 sets x 16 ways) has room
  // for all five, so the L2 victim's write-back is voluntary — the entry
  // stays valid, only the data is merged.
  auto setup = make_paper_setup("SS(32,16,1)", 1);
  System system(setup);
  Trace trace;
  for (int i = 0; i < 5; ++i) {
    trace.push_back(MemOp{line_addr(0x10 + static_cast<LineAddr>(i) * 0x100),
                          AccessType::kWrite});
  }
  system.set_trace(CoreId{0}, trace);
  const auto result = system.run(1000000);
  ASSERT_TRUE(result.all_done);
  EXPECT_EQ(system.llc().stats().voluntary_writebacks, 1);
  EXPECT_EQ(system.llc().stats().freeing_writebacks, 0);
  // The written-back line is still resident in the LLC, dirty, unowned.
  const LineAddr evicted = 0x10;  // L2 LRU after 5 fills to one set
  const int way = system.llc().find_way(CoreId{0}, evicted);
  ASSERT_GE(way, 0);
  const auto entry = system.llc().entry(
      system.llc().key_for(CoreId{0}, evicted).physical_set, way);
  EXPECT_TRUE(entry.dirty);
  EXPECT_TRUE(entry.sharers.empty());
}

TEST(System, CleanVictimNotifiesDirectorySilently) {
  auto setup = make_paper_setup("SS(32,16,1)", 1);
  System system(setup);
  Trace trace;
  for (int i = 0; i < 5; ++i) {
    trace.push_back(MemOp{line_addr(0x10 + static_cast<LineAddr>(i) * 0x100),
                          AccessType::kRead});
  }
  system.set_trace(CoreId{0}, trace);
  const auto result = system.run(1000000);
  ASSERT_TRUE(result.all_done);
  EXPECT_EQ(system.llc().stats().voluntary_writebacks, 0);
  // The evicted line's directory entry is gone; the line stays in the LLC.
  const LineAddr evicted = 0x10;  // L2 LRU after 5 fills to one set
  EXPECT_GE(system.llc().find_way(CoreId{0}, evicted), 0);
  EXPECT_EQ(system.llc().directory().sharer_count(evicted), 0);
}

TEST(System, MakespanCoversAllCores) {
  auto setup = private_setup(2, 8, 2);
  System system(setup);
  system.set_trace(CoreId{0}, Trace{MemOp{line_addr(0x10)}});
  system.set_trace(CoreId{1},
                   Trace{MemOp{1ULL << 30 | line_addr(0x10)},
                         MemOp{1ULL << 30 | line_addr(0x20)}});
  const auto result = system.run(1000000);
  ASSERT_TRUE(result.all_done);
  EXPECT_EQ(system.makespan(),
            std::max(system.finish_time(CoreId{0}),
                     system.finish_time(CoreId{1})));
}

TEST(System, RunWithoutTracesFinishesImmediately) {
  auto setup = private_setup(2, 8, 2);
  System system(setup);
  const auto result = system.run(1000);
  EXPECT_TRUE(result.all_done);
  EXPECT_EQ(result.slots_executed, 0);
}

TEST(System, InclusionInvariantHoldsAfterRandomRun) {
  auto setup = make_paper_setup("SS(4,4,4)", 4);
  System system(setup);
  sim::RandomWorkloadOptions options;
  options.range_bytes = 16384;
  options.accesses = 500;
  options.write_fraction = 0.5;
  const auto traces = sim::make_disjoint_random_workload(4, options, 7);
  for (int c = 0; c < 4; ++c) {
    system.set_trace(CoreId{c}, traces[static_cast<std::size_t>(c)]);
  }
  const auto result = system.run(50'000'000);
  ASSERT_TRUE(result.all_done);
  for (int c = 0; c < 4; ++c) {
    EXPECT_TRUE(system.caches(CoreId{c}).check_inclusion());
    // Every L2-resident line must be present in the LLC (LLC inclusive).
    for (LineAddr line : system.caches(CoreId{c}).l2().resident_lines()) {
      EXPECT_GE(system.llc().find_way(CoreId{c}, line), 0)
          << "line 0x" << std::hex << line << " in L2 of c" << c
          << " but not in the LLC";
    }
  }
  system.llc().check_invariants();
}

TEST(System, SharedPartitionKeepsCoresIsolatedFromOtherPartitions) {
  // Two partitions: cores 0-1 share one, cores 2-3 share another; traffic
  // in one never evicts lines of the other.
  SystemConfig config;
  config.num_cores = 4;
  llc::PartitionMap partitions(config.llc.geometry);
  partitions.add_partition(llc::PartitionSpec{0, 1, 0, 2},
                           {CoreId{0}, CoreId{1}});
  partitions.add_partition(llc::PartitionSpec{0, 1, 2, 2},
                           {CoreId{2}, CoreId{3}});
  System system(config, std::move(partitions));
  // Preload a line for core 2's partition, then hammer partition 0.
  system.preload_owned_line(CoreId{2}, 0x99);
  Trace hammer;
  for (int i = 0; i < 50; ++i) {
    hammer.push_back(MemOp{line_addr(0x1000 + static_cast<LineAddr>(i))});
  }
  system.set_trace(CoreId{0}, hammer);
  const auto result = system.run(10'000'000);
  ASSERT_TRUE(result.all_done);
  EXPECT_GE(system.llc().find_way(CoreId{2}, 0x99), 0)
      << "cross-partition eviction";
}

}  // namespace
}  // namespace psllc::core
