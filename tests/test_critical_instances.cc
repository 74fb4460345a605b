// Integration tests replaying the paper's adversarial scenarios exactly:
// Figure 2 (unbounded WCL), Figure 3 (distance decay), Figure 4 (distance
// increase under cua write-backs).
#include <gtest/gtest.h>

#include "core/critical_instance.h"
#include "core/distance_monitor.h"
#include "core/wcl_analysis.h"

namespace psllc::core {
namespace {

// --- Figure 2: the unbounded scenario --------------------------------------

TEST(UnboundedScenario, BestEffortMultiSlotStarvesCua) {
  auto scenario = make_unbounded_scenario(llc::ContentionMode::kBestEffort,
                                          /*one_slot_tdm=*/false);
  // Run many periods: cua's single request must still be outstanding while
  // the interferer keeps completing accesses.
  scenario.system->run_slots(3000);
  EXPECT_TRUE(scenario.system->blocked(scenario.cua))
      << "cua unexpectedly completed under the unbounded scenario";
  EXPECT_EQ(scenario.system->tracker().service_latency(scenario.cua).count(),
            0);
  // The interferer is making progress the whole time (not a deadlock).
  EXPECT_GT(scenario.system->ops_completed(scenario.interferer), 500u);
}

TEST(UnboundedScenario, OneSlotTdmBoundsTheLatency) {
  auto scenario = make_unbounded_scenario(llc::ContentionMode::kBestEffort,
                                          /*one_slot_tdm=*/true);
  scenario.system->run_slots(3000);
  ASSERT_EQ(scenario.system->tracker().service_latency(scenario.cua).count(),
            1);
  // Theorem 4.7 with N = n = 2, w = 2, m = min(64, 2) = 2:
  // ((2+1) * (2*1*2*1) * 2 + 1) * 50 = 25 slots * 50.
  SharedPartitionScenario analysis;
  analysis.total_cores = 2;
  analysis.sharers = 2;
  analysis.partition_sets = 1;
  analysis.partition_ways = 2;
  analysis.cua_capacity_lines = 64;
  EXPECT_LE(scenario.system->tracker().service_latency(scenario.cua).max(),
            wcl_1s_tdm_cycles(analysis));
}

TEST(UnboundedScenario, SetSequencerPreventsStarvationEvenMultiSlot) {
  // Beyond the paper: FIFO ordering alone removes the Section 4.1 scenario.
  auto scenario = make_unbounded_scenario(llc::ContentionMode::kSetSequencer,
                                          /*one_slot_tdm=*/false);
  scenario.system->run_slots(3000);
  EXPECT_EQ(scenario.system->tracker().service_latency(scenario.cua).count(),
            1);
}

// --- Figure 3: distance decay, request eventually completes ----------------

TEST(Fig3Scenario, CuaCompletesAtItsFourthSlot) {
  auto scenario = make_fig3_scenario();
  System& system = *scenario.system;
  const auto result = system.run(/*max_cycles=*/100000);
  ASSERT_TRUE(result.all_done);
  const RequestTracker& tracker = system.tracker();
  ASSERT_EQ(tracker.service_latency(scenario.cua).count(), 1);
  // Completion at the end of cua's 4th slot: 13 slots of service latency.
  EXPECT_EQ(tracker.service_latency(scenario.cua).max(),
            scenario.expected_completion);
}

TEST(Fig3Scenario, SlotBySlotOwnershipMatchesTheFigure) {
  auto scenario = make_fig3_scenario();
  System& system = *scenario.system;
  const llc::PartitionedLlc& llc = system.llc();

  // Lead-in period: requests issue mid-slot and wait for their next slots.
  for (int s = 0; s < scenario.lead_in_slots; ++s) {
    system.step_slot();
  }
  // Figure slot 1 (cua): Req X misses, evicts l1 (owned by c3).
  system.step_slot();
  {
    const int way = llc.find_way(scenario.cua, scenario.l1);
    ASSERT_GE(way, 0);
    const auto entry = llc.entry(0, way);
    EXPECT_TRUE(entry.pending_inval);
    ASSERT_EQ(entry.sharers.size(), 1u);
    EXPECT_EQ(entry.sharers[0], scenario.c3);
  }
  // c2 idle; figure slot 2 (c3): WB l1 frees the entry.
  system.step_slot();
  system.step_slot();
  EXPECT_EQ(llc.find_way(scenario.cua, scenario.l1), -1);
  EXPECT_EQ(llc.free_ways(scenario.cua, scenario.x), 1);
  // Figure slot 3 (c4): Req Y occupies the freed entry (best effort).
  system.step_slot();
  EXPECT_GE(llc.find_way(scenario.c4, scenario.y), 0);
  EXPECT_EQ(llc.free_ways(scenario.cua, scenario.x), 0);
  EXPECT_TRUE(system.blocked(scenario.cua));

  // Figure slot 4 (cua): retry evicts l2 (owned by c3).
  system.step_slot();
  {
    const int way = llc.find_way(scenario.cua, scenario.l2);
    ASSERT_GE(way, 0);
    EXPECT_TRUE(llc.entry(0, way).pending_inval);
  }
  // c2 idle; figure slot 5 (c3): WB l2 frees; figure slot 6 (c4): Req Z.
  system.step_slot();
  system.step_slot();
  system.step_slot();
  EXPECT_GE(llc.find_way(scenario.c4, scenario.z), 0);

  // Figure slot 7 (cua): retry evicts Y (owned by c4, LRU of the two).
  system.step_slot();
  {
    const int way = llc.find_way(scenario.c4, scenario.y);
    ASSERT_GE(way, 0);
    EXPECT_TRUE(llc.entry(0, way).pending_inval);
  }
  // c2, c3 idle; figure slot 8 (c4): WB Y (frees).
  system.step_slot();
  system.step_slot();
  system.step_slot();
  EXPECT_EQ(llc.free_ways(scenario.cua, scenario.x), 1);

  // Figure slot 9 (cua): fill + response.
  system.step_slot();
  EXPECT_FALSE(system.blocked(scenario.cua));
  EXPECT_GE(llc.find_way(scenario.cua, scenario.x), 0);
  EXPECT_EQ(system.tracker().service_latency(scenario.cua).max(),
            scenario.expected_completion);
}

// --- Figure 4: write-backs by cua increase distance ------------------------

TEST(Fig4Scenario, CuaWriteBackLetsFartherCoreStealAndRaisesDistance) {
  auto scenario = make_fig4_scenario();
  System& system = *scenario.system;
  DistanceMonitor monitor(system, scenario.cua);
  system.add_slot_observer(
      [&monitor](const SlotEvent& event) { monitor.on_slot(event); });
  const llc::PartitionedLlc& llc = system.llc();

  // Lead-in period, then the figure's period t: cua Req X (evict l1),
  // c2 Req Y (evict l2), c3 Req A (evict l owned by cua!), c4 WB l1
  // (frees a set-0 way).
  for (int s = 0; s < scenario.lead_in_slots + 4; ++s) {
    system.step_slot();
  }
  EXPECT_EQ(llc.find_way(scenario.cua, scenario.l1), -1);  // freed
  EXPECT_TRUE(system.buffers(scenario.cua).has_writeback_for(scenario.l));

  // cua's second presented slot: round-robin picks the forced WB of l —
  // the request cannot complete despite the free entry (the paper's step 5).
  system.step_slot();
  EXPECT_TRUE(system.blocked(scenario.cua));
  EXPECT_EQ(llc.find_way(scenario.cua, scenario.l), -1);  // set-1 way freed

  // c2's slot: Req Y occupies the set-0 entry freed by c4 — the core
  // caching that way went from c4 (distance 1) to c2 (distance 3).
  system.step_slot();
  {
    const int way = llc.find_way(scenario.c2, scenario.y);
    ASSERT_GE(way, 0);
    const auto entry = llc.entry(0, way);
    ASSERT_EQ(entry.sharers.size(), 1u);
    EXPECT_EQ(entry.sharers[0], scenario.c2);
    const auto& schedule = system.schedule();
    EXPECT_EQ(schedule.distance(scenario.c4, scenario.cua), 1);
    EXPECT_EQ(schedule.distance(scenario.c2, scenario.cua), 3);
  }

  // c3 Resp A, c4 WB l2 (frees), cua Resp X.
  system.step_slot();
  system.step_slot();
  system.step_slot();
  EXPECT_FALSE(system.blocked(scenario.cua));
  EXPECT_EQ(system.tracker().service_latency(scenario.cua).max(),
            scenario.expected_completion);

  // The monitor must have witnessed an increase right after cua's WB and
  // no violation of Lemma 4.4 (no increase without a write-back).
  EXPECT_GE(monitor.increases_after_writeback(), 1);
  EXPECT_TRUE(monitor.violations().empty());
}

}  // namespace
}  // namespace psllc::core
