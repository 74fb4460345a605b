// Advanced system-level behaviours: read sharing across cores, shared-write
// flagging, the set sequencer's no-steal guarantee, write-back
// cancellation, weighted schedules, and failure injection.
#include <gtest/gtest.h>

#include "common/assert.h"
#include "core/system.h"
#include "sim/workload.h"

namespace psllc::core {
namespace {

Addr line_addr(LineAddr line) { return line * 64; }

TEST(SystemAdvanced, ReadSharingAcrossCoresInSharedPartition) {
  // Two cores read the same line: the second gets an LLC hit and both
  // become sharers; a later conflict eviction needs both acks.
  auto setup = make_paper_setup("SS(1,2,2)", 2);
  System system(setup);
  system.set_trace(CoreId{0}, Trace{MemOp{line_addr(0x10)}});
  system.set_trace(CoreId{1},
                   Trace{MemOp{line_addr(0x10), AccessType::kRead, 300}});
  ASSERT_TRUE(system.run(1'000'000).all_done);
  EXPECT_EQ(system.llc().directory().sharer_count(0x10), 2);
  EXPECT_EQ(system.llc().stats().fills, 1);
  EXPECT_EQ(system.llc().stats().hit_presentations, 1);
  EXPECT_EQ(system.llc().stats().shared_write_flags, 0);
}

TEST(SystemAdvanced, SharedWriteMissIsFlagged) {
  auto setup = make_paper_setup("SS(1,2,2)", 2);
  System system(setup);
  // c1 holds the line privately; c0 write-misses to it.
  system.preload_owned_line(CoreId{1}, 0x10);
  system.set_trace(CoreId{0},
                   Trace{MemOp{line_addr(0x10), AccessType::kWrite, 0}});
  ASSERT_TRUE(system.run(1'000'000).all_done);
  EXPECT_GE(system.llc().stats().shared_write_flags, 1);
}

TEST(SystemAdvanced, SetSequencerNeverSteals) {
  // FIFO ordering means allocations never pass an older waiter: the steal
  // counter must stay zero under heavy conflict, while NSS records steals
  // on the identical workload.
  sim::RandomWorkloadOptions workload;
  workload.range_bytes = 16384;
  workload.accesses = 6000;
  workload.write_fraction = 0.3;
  const auto traces = sim::make_disjoint_random_workload(4, workload, 55);

  auto run_with = [&](const char* notation) {
    const auto setup = make_paper_setup(notation, 4);
    System system(setup);
    for (int c = 0; c < 4; ++c) {
      system.set_trace(CoreId{c}, traces[static_cast<std::size_t>(c)]);
    }
    EXPECT_TRUE(system.run(2'000'000'000).all_done);
    return system.llc().stats();
  };
  const auto ss_stats = run_with("SS(1,4,4)");
  const auto nss_stats = run_with("NSS(1,4,4)");
  EXPECT_EQ(ss_stats.steals, 0) << "sequencer must enforce FIFO";
  EXPECT_GT(nss_stats.steals, 0) << "best effort should steal under conflict";
}

TEST(SystemAdvanced, WritebackCancelledWhenLineRefetched) {
  // The in-flight-write-back race: a dirty L2 victim's voluntary write-back
  // must still sit in the PWB when the core re-requests the same line (LLC
  // hit). With the alternating PRB/PWB round-robin this needs the victim's
  // write-back queued *behind* two earlier forced write-backs:
  //   slot 1: c1's Req Y1 evicts W1 (owned by c0)  -> forced WB_W1 queued
  //   slot 2: c2's Req Y2 evicts W2 (owned by c0)  -> forced WB_W2 queued
  //   slot 4: c0's Req Z fills (free way), its L2 fill evicts X dirty
  //           -> voluntary WB_X queued; c0 then re-reads X
  //   slot 8: round-robin drains WB_W1
  //   slot 12: Req X presented while WB_X is still queued -> LLC hit ->
  //            WB_X cancelled, dirtiness folds back into the refill.
  auto setup = make_paper_setup("NSS(32,4,4)", 4);
  System system(setup);
  // c0's L2 set 0 (lines = 0 mod 16), X preloaded first so Z's fill evicts
  // it. Lines split across LLC partition sets 16 and 0 (mod 32).
  system.preload_owned_line(CoreId{0}, 0x10, /*dirty_private=*/true);  // X
  system.preload_owned_line(CoreId{0}, 0x30);  // F1 (pset 16)
  system.preload_owned_line(CoreId{0}, 0x40);  // F2 (pset 0)
  system.preload_owned_line(CoreId{0}, 0x60);  // F3 (pset 0)
  // c0-owned victims for the interferers, in full 4-way partition sets 17
  // and 18 (L2 sets 1 and 2).
  for (LineAddr line : {0x11ULL, 0x31ULL, 0x51ULL, 0x71ULL}) {
    system.preload_owned_line(CoreId{0}, line);  // pset 17, W1 = 0x11 LRU
  }
  for (LineAddr line : {0x12ULL, 0x32ULL, 0x52ULL, 0x72ULL}) {
    system.preload_owned_line(CoreId{0}, line);  // pset 18, W2 = 0x12 LRU
  }
  system.set_trace(CoreId{0}, Trace{MemOp{line_addr(0x20)},    // Z (pset 0)
                                    MemOp{line_addr(0x10)}});  // re-read X
  system.set_trace(CoreId{1}, Trace{MemOp{line_addr(0x91)}});  // Y1, pset 17
  system.set_trace(CoreId{2}, Trace{MemOp{line_addr(0x92)}});  // Y2, pset 18
  ASSERT_TRUE(system.run(1'000'000).all_done);
  EXPECT_EQ(system.writebacks_cancelled(), 1);
  // The cancelled write-back never reached the LLC as a voluntary WB...
  EXPECT_EQ(system.llc().stats().voluntary_writebacks, 0);
  // ...and the dirtiness survived in the private hierarchy.
  EXPECT_TRUE(system.caches(CoreId{0}).holds_dirty(0x10));
  system.llc().check_invariants();
}

TEST(SystemAdvanced, WeightedScheduleRunsPrivatePartitions) {
  // Multi-slot schedules are fine for private partitions (bounded WCL);
  // the favoured core simply gets more bus bandwidth.
  SystemConfig config;
  config.num_cores = 2;
  config.schedule_slots = {CoreId{0}, CoreId{0}, CoreId{1}};
  llc::PartitionMap partitions = llc::make_private_partitions(
      config.llc.geometry, 2, 8, 2);
  System system(config, std::move(partitions));
  sim::RandomWorkloadOptions workload;
  workload.range_bytes = 4096;
  workload.accesses = 1000;
  const auto traces = sim::make_disjoint_random_workload(2, workload, 5);
  system.set_trace(CoreId{0}, traces[0]);
  system.set_trace(CoreId{1}, traces[1]);
  ASSERT_TRUE(system.run(1'000'000'000).all_done);
  // The double-slot core finishes earlier on the identical workload shape.
  EXPECT_LT(system.finish_time(CoreId{0}), system.finish_time(CoreId{1}));
}

TEST(SystemAdvanced, PwbOverflowIsDetectedNotSilent) {
  // Failure injection: an undersized PWB must trip an assertion instead of
  // silently dropping write-backs.
  auto setup = make_paper_setup("NSS(1,4,4)", 4);
  setup.config.pwb_capacity = 1;
  System system(setup);
  sim::RandomWorkloadOptions workload;
  workload.range_bytes = 16384;
  workload.accesses = 3000;
  workload.write_fraction = 0.5;
  const auto traces = sim::make_disjoint_random_workload(4, workload, 66);
  for (int c = 0; c < 4; ++c) {
    system.set_trace(CoreId{c}, traces[static_cast<std::size_t>(c)]);
  }
  EXPECT_THROW(system.run(2'000'000'000), AssertionError);
}

TEST(SystemAdvanced, InvalidCoreIdAsserts) {
  auto setup = make_paper_setup("P(8,2)", 4);
  System system(setup);
  EXPECT_THROW((void)system.finish_time(CoreId{4}), AssertionError);
  EXPECT_THROW((void)system.caches(kNoCore), AssertionError);
  EXPECT_THROW(system.set_trace(CoreId{-1}, Trace{}), AssertionError);
}

TEST(SystemAdvanced, MakespanBeforeCompletionAsserts) {
  auto setup = make_paper_setup("P(8,2)", 4);
  System system(setup);
  system.set_trace(CoreId{0}, Trace{MemOp{line_addr(0x10)}});
  EXPECT_THROW((void)system.makespan(), AssertionError);
  ASSERT_TRUE(system.run(1'000'000).all_done);
  EXPECT_GT(system.makespan(), 0);
}

TEST(SystemAdvanced, ObserversSeeEverySlot) {
  auto setup = make_paper_setup("P(8,2)", 2);
  System system(setup);
  system.set_trace(CoreId{0}, Trace{MemOp{line_addr(0x10)}});
  std::int64_t slots_seen = 0;
  std::int64_t responses = 0;
  system.add_slot_observer([&](const SlotEvent& event) {
    ++slots_seen;
    responses += event.request_completed ? 1 : 0;
  });
  const auto result = system.run(1'000'000);
  ASSERT_TRUE(result.all_done);
  EXPECT_EQ(slots_seen, result.slots_executed);
  EXPECT_EQ(responses, 1);
}

TEST(SystemAdvanced, DeterministicAcrossRuns) {
  sim::RandomWorkloadOptions workload;
  workload.range_bytes = 8192;
  workload.accesses = 2000;
  workload.write_fraction = 0.3;
  const auto traces = sim::make_disjoint_random_workload(4, workload, 77);
  auto run_once = [&] {
    const auto setup = make_paper_setup("NSS(1,4,4)", 4);
    System system(setup);
    for (int c = 0; c < 4; ++c) {
      system.set_trace(CoreId{c}, traces[static_cast<std::size_t>(c)]);
    }
    EXPECT_TRUE(system.run(2'000'000'000).all_done);
    return std::make_pair(system.makespan(),
                          system.tracker().max_service_latency());
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second) << "simulation must be bit-deterministic";
}

}  // namespace
}  // namespace psllc::core
