// Dynamic repartitioning: the differential grid (sim::replay's skip search
// vs sim::replay_every_slot across memory backends x notations x
// transition cadences must be bit-identical through every drain/flush
// transition), the transient WCL bound under live repartitioning, LLC
// containment after the drain fence, and the way-bounce mode builder.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/system.h"
#include "core/wcl_analysis.h"
#include "llc/llc.h"
#include "llc/partition.h"
#include "mem/memory_backend.h"
#include "sim/replay.h"
#include "sim/workload.h"

namespace psllc::sim {
namespace {

/// Three-mode program: initial -> way-bounced at `cadence_slots` slots ->
/// restored at twice that, giving two full drain/flush transitions.
core::ExperimentSetup make_dynamic_setup(const char* notation, int cores,
                                         int way_bounce, int cadence_slots) {
  core::ExperimentSetup setup = core::make_paper_setup(notation, cores);
  const llc::PartitionMap initial = setup.partitions();
  const Cycle epoch = Cycle(cadence_slots) * setup.config.slot_width;
  llc::PartitionProgram program(initial);
  program.add_mode(llc::make_way_bounced_map(initial, way_bounce), epoch, {},
                   "bounce");
  program.add_mode(initial, 2 * epoch, {}, "restore");
  setup.program = std::move(program);
  return setup;
}

std::pair<RunMetrics, RunMetrics> run_both(
    const core::ExperimentSetup& setup,
    const std::vector<core::Trace>& traces,
    Cycle max_cycles = 2'000'000'000) {
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  request.options.max_cycles = max_cycles;
  const RunMetrics kernel = replay(request).metrics;
  return {kernel, replay_every_slot(request).metrics};
}

// The tentpole contract: both engines bit-identical through two
// transitions, for every registered memory backend, every notation kind,
// and fast/slow trigger cadences.
TEST(RepartitionDifferential, MatchesAcrossBackendsNotationsAndCadences) {
  const char* notations[] = {"SS(32,2,2)", "NSS(32,2,2)", "P(8,2)"};
  std::uint64_t seed = 2024;
  for (const mem::BackendVariant& variant :
       mem::registered_backend_variants()) {
    for (const char* notation : notations) {
      for (const int cadence : {8, 24}) {
        ++seed;
        core::ExperimentSetup setup =
            make_dynamic_setup(notation, 2, 1 + static_cast<int>(seed % 2),
                               cadence);
        setup.config.dram = variant.config;
        setup.config.validate();
        RandomWorkloadOptions workload;
        workload.range_bytes = 16384;
        workload.accesses = 1200;
        workload.write_fraction = 0.5;
        const auto traces = make_disjoint_random_workload(2, workload, seed);
        const std::string label = variant.label + " " + notation + " cad" +
                                  std::to_string(cadence);
        const auto [kernel, legacy] = run_both(setup, traces);
        EXPECT_TRUE(kernel == legacy) << label;
        EXPECT_TRUE(legacy.completed) << label;
        EXPECT_GE(legacy.llc_stats.repartitions, 1) << label;
      }
    }
  }
}

// A horizon that lands inside the first drain window: both engines must
// agree on the truncated outcome too (the kernel may not skip past a
// transition boundary it never reached).
TEST(RepartitionDifferential, MatchesOnHorizonTruncatedMidDrain) {
  core::ExperimentSetup setup = make_dynamic_setup("SS(32,2,2)", 2, 2, 8);
  RandomWorkloadOptions workload;
  workload.range_bytes = 16384;
  workload.accesses = 4000;
  workload.write_fraction = 0.6;
  const auto traces = make_disjoint_random_workload(2, workload, 77);
  // Epoch = 8 slots * 50 = 400 cycles; cut the run shortly after.
  const auto [kernel, legacy] =
      run_both(setup, traces, /*max_cycles=*/450);
  EXPECT_FALSE(legacy.completed);
  EXPECT_TRUE(kernel == legacy) << "mid-drain";
}

// The restore epoch falls one slot after the bounce epoch, while the
// bounce still drains, so the restore fires only after that drain's fence,
// at a slot past its own epoch. Only core 0 has a trace, so the slot in
// which the bounce's drain completes is idle and the search, not the busy
// stretch, picks the next slot: it must not go back to the restore epoch's
// slot.
TEST(RepartitionDifferential, MatchesWhenTheNextEpochFallsInsideADrain) {
  core::ExperimentSetup setup = core::make_paper_setup("SS(32,2,2)", 2);
  const std::int64_t bounce_slot = 200;
  const Cycle W = setup.config.slot_width;
  const llc::PartitionMap initial = setup.partitions();
  llc::PartitionProgram program(initial);
  program.add_mode(llc::make_way_bounced_map(initial, 1), bounce_slot * W,
                   {}, "bounce");
  program.add_mode(initial, (bounce_slot + 1) * W, {}, "restore");
  setup.program = std::move(program);
  RandomWorkloadOptions workload;
  workload.range_bytes = 16384;
  workload.accesses = 2000;
  workload.write_fraction = 0.6;
  const auto traces = make_disjoint_random_workload(1, workload, 4040);

  core::System probe(setup);
  probe.set_trace(CoreId{0}, traces[0]);
  bool draining_at_restore_epoch = false;
  bool was_draining = false;
  std::int64_t fence_slot = -1;
  bool fence_slot_idle = false;
  probe.add_slot_observer([&](const core::SlotEvent& event) {
    const bool draining = probe.llc().transition_active();
    if (event.slot_index == bounce_slot + 1) {
      draining_at_restore_epoch = draining;
    }
    if (was_draining && !draining && fence_slot < 0) {
      fence_slot = event.slot_index;
      fence_slot_idle = event.action == core::SlotEvent::Action::kIdle;
    }
    was_draining = draining;
  });
  ASSERT_TRUE(probe.run(2'000'000'000).all_done);
  ASSERT_TRUE(draining_at_restore_epoch) << "the bounce drained in one slot";
  ASSERT_TRUE(fence_slot_idle) << "slot " << fence_slot << " is busy";

  const auto [kernel, legacy] = run_both(setup, traces);
  EXPECT_TRUE(legacy.completed);
  EXPECT_EQ(legacy.llc_stats.repartitions, 2);
  EXPECT_TRUE(kernel == legacy) << "restore deferred past its epoch";
}

// A no-op transition (identical maps) must not drain anything.
TEST(RepartitionDifferential, NoOpTransitionDrainsNothing) {
  core::ExperimentSetup setup = make_dynamic_setup("SS(32,2,2)", 2, 0, 12);
  RandomWorkloadOptions workload;
  workload.range_bytes = 8192;
  workload.accesses = 800;
  const auto traces = make_disjoint_random_workload(2, workload, 5);
  const auto [kernel, legacy] = run_both(setup, traces);
  EXPECT_TRUE(kernel == legacy) << "noop";
  EXPECT_EQ(legacy.llc_stats.drain_writebacks, 0);
  EXPECT_EQ(legacy.llc_stats.drain_back_invals, 0);
}

// Transient requests stay within the transient analytical bound, and the
// LLC invariants (containment in the *current* mode's rectangles included)
// hold after the final fence.
TEST(RepartitionBounds, ObservedTransientWithinBoundAndLlcContained) {
  for (const char* notation : {"SS(32,2,2)", "NSS(32,2,2)", "P(8,2)"}) {
    core::ExperimentSetup setup = make_dynamic_setup(notation, 2, 2, 12);
    core::System system(setup.config, setup.program);
    RandomWorkloadOptions workload;
    workload.range_bytes = 16384;
    workload.accesses = 2500;
    workload.write_fraction = 0.5;
    const auto traces = make_disjoint_random_workload(2, workload, 31);
    for (int c = 0; c < 2; ++c) {
      system.set_trace(CoreId{c}, traces[static_cast<std::size_t>(c)]);
    }
    ASSERT_TRUE(system.run(2'000'000'000).all_done) << notation;
    system.llc().check_invariants();
    EXPECT_GE(system.llc().stats().repartitions, 1) << notation;
    if (system.observed_transient_wcl() != kNoCycle) {
      EXPECT_LE(system.observed_transient_wcl(),
                core::transient_wcl_cycles(setup, CoreId{0}))
          << notation;
    }
  }
}

// The way-bounce builder: shift when the bounce fits the way dimension,
// shrink (floor one way) when it does not, identity at bounce 0.
TEST(WayBounce, ShiftsWhenItFitsShrinksWhenItDoesNot) {
  const core::ExperimentSetup setup = core::make_paper_setup("SS(32,2,2)", 2);
  const llc::PartitionMap& initial = setup.partitions();

  const llc::PartitionMap shifted = llc::make_way_bounced_map(initial, 3);
  ASSERT_EQ(shifted.num_partitions(), initial.num_partitions());
  EXPECT_EQ(shifted.spec(0).first_way, initial.spec(0).first_way + 3);
  EXPECT_EQ(shifted.spec(0).num_ways, initial.spec(0).num_ways);
  EXPECT_EQ(shifted.sharers(0), initial.sharers(0));

  // A full-width partition cannot shift: it shrinks instead.
  llc::PartitionMap wide(setup.config.llc.geometry);
  wide.add_partition(llc::PartitionSpec{0, 32, 0, 16},
                     {CoreId{0}, CoreId{1}});
  const llc::PartitionMap shrunk = llc::make_way_bounced_map(wide, 2);
  EXPECT_EQ(shrunk.spec(0).first_way, 0);
  EXPECT_EQ(shrunk.spec(0).num_ways, 14);
  const llc::PartitionMap floored = llc::make_way_bounced_map(wide, 40);
  EXPECT_EQ(floored.spec(0).num_ways, 1);

  const llc::PartitionMap same = llc::make_way_bounced_map(initial, 0);
  EXPECT_EQ(same.spec(0).first_way, initial.spec(0).first_way);
  EXPECT_EQ(same.spec(0).num_ways, initial.spec(0).num_ways);
}

// The LLC resolves a core's partition from the active mode: after a switch
// that renumbers partitions and moves their rectangles, every SetKey,
// probe and fill follows the new map, not the one the LLC was built with.
TEST(LlcRoutes, FollowTheActiveModeAfterASwitch) {
  const mem::CacheGeometry geometry = llc::LlcConfig{}.geometry;
  llc::PartitionMap initial(geometry);
  initial.add_partition(llc::PartitionSpec{0, 4, 0, 2}, {CoreId{0}});
  initial.add_partition(llc::PartitionSpec{4, 4, 0, 2}, {CoreId{1}});
  llc::PartitionMap moved(geometry);
  moved.add_partition(llc::PartitionSpec{8, 4, 2, 2}, {CoreId{1}});
  moved.add_partition(llc::PartitionSpec{16, 8, 4, 3}, {CoreId{0}});
  llc::PartitionProgram program(initial);
  program.add_mode(moved, 100, {}, "moved");
  mem::FixedLatencyBackend dram{mem::DramConfig{}};
  llc::PartitionedLlc llc(llc::LlcConfig{}, std::move(program),
                          llc::ContentionMode::kSetSequencer, 2, dram);
  EXPECT_EQ(llc.key_for(CoreId{0}, 0x5), (llc::SetKey{0, 1}));
  EXPECT_TRUE(llc.advance_transition(100).empty());  // nothing to drain
  ASSERT_FALSE(llc.transition_active());

  const llc::PartitionMap& map = llc.partitions();
  for (int c = 0; c < 2; ++c) {
    const CoreId core{c};
    const int pid = map.partition_of(core);
    const llc::PartitionSpec& spec = map.spec(pid);
    const LineAddr base = LineAddr{0x40} * static_cast<LineAddr>(c + 1);
    for (LineAddr line = base; line < base + 6; ++line) {
      EXPECT_EQ(llc.key_for(core, line),
                (llc::SetKey{pid, spec.map_set(line)}));
      const int free_before = llc.free_ways(core, line);
      EXPECT_EQ(llc.find_way(core, line), -1);
      EXPECT_EQ(llc.handle_request(core, line, 150).status,
                llc::RequestOutcome::Status::kFilled);
      const int way = llc.find_way(core, line);
      EXPECT_TRUE(spec.contains_way(way)) << "way " << way;
      EXPECT_TRUE(llc.entry(spec.map_set(line), way).valid);
      EXPECT_EQ(llc.entry(spec.map_set(line), way).line, line);
      EXPECT_EQ(llc.free_ways(core, line), free_before - 1);
      EXPECT_EQ(llc.handle_request(core, line, 200).status,
                llc::RequestOutcome::Status::kHit);
    }
  }
  llc.check_invariants();
}

// Set 0's ways 0-1 hold c0's lines A and B, way 2 holds c1's line C. At
// cycle 100 ways 0-2 pass to {c1, c2} (all three frozen), so A and B must
// drain; the drain serializer issues A's invalidation and holds B's until
// c0 answers. B is then draining without a pending invalidation.
class LlcDrain : public ::testing::Test {
 protected:
  static constexpr LineAddr kA = 0x100;
  static constexpr LineAddr kB = 0x200;
  static constexpr LineAddr kC = 0x300;

  LlcDrain()
      : llc_(llc::LlcConfig{}, program(), llc::ContentionMode::kSetSequencer,
             3, dram_) {
    llc_.preload(kA, {CoreId{0}}, /*dirty=*/true);
    llc_.preload(kB, {CoreId{0}}, /*dirty=*/false);
    llc_.preload(kC, {CoreId{1}}, /*dirty=*/false);
    const auto invals = llc_.advance_transition(100);
    EXPECT_EQ(invals.size(), 1u);  // c0 has one drain inval at a time
    EXPECT_TRUE(llc_.transition_active());
    EXPECT_TRUE(llc_.entry(0, 0).pending_inval);   // A: issued
    EXPECT_FALSE(llc_.entry(0, 1).pending_inval);  // B: draining, waiting
    EXPECT_EQ(llc_.entry(0, 2).line, kC);
    llc_.check_invariants();
  }

  static llc::PartitionProgram program() {
    const mem::CacheGeometry geometry = llc::LlcConfig{}.geometry;
    llc::PartitionMap initial(geometry);
    initial.add_partition(llc::PartitionSpec{0, 1, 0, 2}, {CoreId{0}});
    initial.add_partition(llc::PartitionSpec{0, 1, 2, 1},
                          {CoreId{1}, CoreId{2}});
    llc::PartitionMap moved(geometry);
    moved.add_partition(llc::PartitionSpec{0, 1, 0, 3},
                        {CoreId{1}, CoreId{2}});
    moved.add_partition(llc::PartitionSpec{1, 1, 0, 2}, {CoreId{0}});
    llc::PartitionProgram program(initial);
    program.add_mode(moved, 100, {}, "moved");
    return program;
  }

  mem::FixedLatencyBackend dram_{mem::DramConfig{}};
  llc::PartitionedLlc llc_;
};

// A draining line is supply for the eviction rule even before its drain
// invalidation is issued: two requests wait on set 0 with A and B on their
// way out, so no new eviction starts. (A supply that counted only pending
// invalidations would see one entry for two waiters and evict C.)
TEST_F(LlcDrain, UnissuedDrainCountsAsSupply) {
  for (const auto& [core, line] : {std::pair{CoreId{1}, LineAddr{0x400}},
                                   std::pair{CoreId{2}, LineAddr{0x500}}}) {
    const llc::RequestOutcome outcome = llc_.handle_request(core, line, 150);
    EXPECT_EQ(outcome.status, llc::RequestOutcome::Status::kBlocked);
    EXPECT_FALSE(outcome.back_invalidation.has_value()) << to_string(core);
  }
  EXPECT_EQ(llc_.stats().evictions_started, 0);
  EXPECT_FALSE(llc_.entry(0, 2).pending_inval);  // C untouched
  llc_.check_invariants();
}

// A draining line must not serve hits, even inside the requester's new
// ways and with no invalidation issued yet: the requester waits for the
// line to leave and be fetched again.
TEST_F(LlcDrain, DrainingLineServesNoHit) {
  const llc::RequestOutcome outcome = llc_.handle_request(CoreId{1}, kB, 150);
  EXPECT_EQ(outcome.status, llc::RequestOutcome::Status::kBlocked);
  EXPECT_EQ(llc_.stats().hit_presentations, 0);
  EXPECT_TRUE(llc_.has_pending_request(CoreId{1}));
  llc_.check_invariants();
}

// Program validation: epochs must strictly increase and mode 0 starts at 0.
TEST(PartitionProgram, RejectsNonIncreasingEpochs) {
  const core::ExperimentSetup setup = core::make_paper_setup("SS(32,2,2)", 2);
  llc::PartitionProgram program(setup.partitions());
  EXPECT_THROW(program.add_mode(setup.partitions(), 0), ConfigError);
  program.add_mode(setup.partitions(), 100);
  EXPECT_THROW(program.add_mode(setup.partitions(), 100), ConfigError);
  EXPECT_THROW(program.add_mode(setup.partitions(), 50), ConfigError);
  program.add_mode(setup.partitions(), 200);
  EXPECT_EQ(program.num_modes(), 3);
  EXPECT_FALSE(program.is_static());
  EXPECT_EQ(program.mode_index_at(0), 0);
  EXPECT_EQ(program.mode_index_at(99), 0);
  EXPECT_EQ(program.mode_index_at(100), 1);
  EXPECT_EQ(program.mode_index_at(1000), 2);
}

}  // namespace
}  // namespace psllc::sim
