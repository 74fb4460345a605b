// Dynamic repartitioning: the differential grid (replay kernel vs legacy
// core::System across memory backends x notations x transition cadences
// must be bit-identical through every drain/flush transition), the
// transient WCL bound under live repartitioning, LLC containment after the
// drain fence, and the way-bounce mode builder.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/system.h"
#include "core/wcl_analysis.h"
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
    const std::vector<core::Trace>& traces, const std::string& label,
    Cycle max_cycles = 2'000'000'000) {
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  request.options.max_cycles = max_cycles;
  request.engine = ReplayEngine::kKernel;
  const ReplayResult kernel = replay(request);
  EXPECT_TRUE(kernel.used_kernel) << label;
  request.engine = ReplayEngine::kLegacy;
  const ReplayResult legacy = replay(request);
  EXPECT_FALSE(legacy.used_kernel) << label;
  return {kernel.metrics, legacy.metrics};
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
        const auto [kernel, legacy] = run_both(setup, traces, label);
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
      run_both(setup, traces, "mid-drain", /*max_cycles=*/450);
  EXPECT_FALSE(legacy.completed);
  EXPECT_TRUE(kernel == legacy) << "mid-drain";
}

// A no-op transition (identical maps) must not drain anything.
TEST(RepartitionDifferential, NoOpTransitionDrainsNothing) {
  core::ExperimentSetup setup = make_dynamic_setup("SS(32,2,2)", 2, 0, 12);
  RandomWorkloadOptions workload;
  workload.range_bytes = 8192;
  workload.accesses = 800;
  const auto traces = make_disjoint_random_workload(2, workload, 5);
  const auto [kernel, legacy] = run_both(setup, traces, "noop");
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
