// The generalized private-partition WCL bound for arbitrary TDM schedules
// (extension beyond the paper), checked against the closed form for 1S-TDM
// and validated empirically on weighted schedules.
#include <gtest/gtest.h>

#include "core/system.h"
#include "core/wcl_analysis.h"
#include "sim/replay.h"
#include "sim/workload.h"

namespace psllc::core {
namespace {

Addr line_addr(LineAddr line) { return line * 64; }

TEST(WeightedPrivateWcl, MatchesClosedFormForOneSlotTdm) {
  for (int n : {1, 2, 3, 4, 8}) {
    const auto schedule = bus::TdmSchedule::one_slot(n, 50);
    for (int c = 0; c < n; ++c) {
      EXPECT_EQ(wcl_private_cycles(schedule, CoreId{c}),
                wcl_private_cycles(n, 50))
          << "n=" << n << " c=" << c;
    }
  }
}

TEST(WeightedPrivateWcl, FavouredCoreGetsTighterBound) {
  // Schedule {c0, c0, c1}: c0's worst span (present at its 2nd slot in the
  // period) is slot1 -> wb slot3 -> retry slot4: 4 slots; c1's is
  // slot2 -> wb slot5 -> retry slot8: 7 slots.
  const auto schedule =
      bus::TdmSchedule::from_slots({CoreId{0}, CoreId{0}, CoreId{1}}, 50);
  EXPECT_EQ(wcl_private_cycles(schedule, CoreId{0}), 4 * 50);
  EXPECT_EQ(wcl_private_cycles(schedule, CoreId{1}), 7 * 50);
}

TEST(WeightedPrivateWcl, RejectsUnknownCore) {
  const auto schedule = bus::TdmSchedule::one_slot(2, 50);
  EXPECT_THROW((void)wcl_private_cycles(schedule, CoreId{2}), ConfigError);
  EXPECT_THROW((void)wcl_private_cycles(schedule, kNoCore), ConfigError);
}

class WeightedPrivateWclEmpirical
    : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(WeightedPrivateWclEmpirical, ObservedWithinBound) {
  const std::vector<int>& weights = GetParam();
  SystemConfig config;
  config.num_cores = static_cast<int>(weights.size());
  config.schedule_slots.clear();
  for (std::size_t c = 0; c < weights.size(); ++c) {
    for (int k = 0; k < weights[c]; ++k) {
      config.schedule_slots.emplace_back(static_cast<int>(c));
    }
  }
  // One private single-set 2-way partition per core: heavy self-conflict.
  llc::PartitionMap partitions = llc::make_private_partitions(
      config.llc.geometry, config.num_cores, 1, 2);
  System system(config, std::move(partitions));
  const auto schedule = system.schedule();
  sim::RandomWorkloadOptions workload;
  workload.range_bytes = 4096;
  workload.accesses = 3000;
  workload.write_fraction = 0.4;
  const auto traces = sim::make_disjoint_random_workload(
      config.num_cores, workload, 13);
  for (int c = 0; c < config.num_cores; ++c) {
    system.set_trace(CoreId{c}, traces[static_cast<std::size_t>(c)]);
  }
  ASSERT_TRUE(system.run(2'000'000'000).all_done);
  for (int c = 0; c < config.num_cores; ++c) {
    const auto& latency = system.tracker().service_latency(CoreId{c});
    if (latency.count() == 0) {
      continue;
    }
    EXPECT_LE(latency.max(), wcl_private_cycles(schedule, CoreId{c}))
        << "core " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Weights, WeightedPrivateWclEmpirical,
    ::testing::Values(std::vector<int>{1, 1}, std::vector<int>{2, 1},
                      std::vector<int>{1, 3}, std::vector<int>{2, 1, 1},
                      std::vector<int>{1, 2, 3}),
    [](const ::testing::TestParamInfo<std::vector<int>>& info) {
      std::string name = "w";
      for (int weight : info.param) {
        name += std::to_string(weight);
      }
      return name;
    });

// Sanity: the weighted bound is what the simulator's own critical path
// realizes for the exact 3-line self-conflict trace.
TEST(WeightedPrivateWcl, SelfConflictHitsTheBoundExactly) {
  SystemConfig config;
  config.num_cores = 2;
  config.schedule_slots = {CoreId{0}, CoreId{1}, CoreId{1}};
  llc::PartitionMap partitions =
      llc::make_private_partitions(config.llc.geometry, 2, 1, 2);
  System system(config, std::move(partitions));
  system.set_trace(CoreId{0}, Trace{MemOp{line_addr(0x10)},
                                    MemOp{line_addr(0x20)},
                                    MemOp{line_addr(0x30)}});
  ASSERT_TRUE(system.run(1'000'000).all_done);
  const Cycle bound = wcl_private_cycles(system.schedule(), CoreId{0});
  EXPECT_EQ(bound, 7 * 50);  // present slot0 -> wb slot3 -> retry slot6
  EXPECT_EQ(system.tracker().service_latency(CoreId{0}).max(), bound);
}

// The bound sim::replay reports for a weighted schedule. A sole sharer gets
// the private bound of the configured schedule: under {c0, c1, c1} core 0
// presents at slot 0, writes back at slot 3 and retries at slot 6, 7 slots
// and not the 1S-TDM (2N+1) = 5. A shared partition has no derived bound
// under a multi-slot schedule, so its cell is refused.
TEST(WeightedPrivateWcl, ReplayReportsTheWeightedBoundAndRefusesSharing) {
  sim::RandomWorkloadOptions workload;
  workload.range_bytes = 4096;
  workload.accesses = 2000;
  const std::vector<Trace> traces =
      sim::make_disjoint_random_workload(2, workload, 5);
  const auto replay_under_weights = [&](std::string_view notation) {
    ExperimentSetup setup = make_paper_setup(notation, 2);
    setup.config.schedule_slots = {CoreId{0}, CoreId{1}, CoreId{1}};
    setup.config.validate();
    sim::ReplayRequest request;
    request.setup = &setup;
    request.workload.per_core = &traces;
    return sim::replay(request).metrics;
  };
  for (const char* notation : {"P(1,2)", "P(2,2)", "P(8,2)"}) {
    const sim::RunMetrics metrics = replay_under_weights(notation);
    ASSERT_TRUE(metrics.completed) << notation;
    EXPECT_EQ(metrics.analytical_wcl, 7 * 50) << notation;
    EXPECT_EQ(metrics.observed_wcl, 7 * 50) << notation;
    EXPECT_LE(metrics.observed_wcl, metrics.analytical_wcl) << notation;
  }
  EXPECT_THROW((void)replay_under_weights("SS(1,2,2)"), ConfigError);
}

}  // namespace
}  // namespace psllc::core
