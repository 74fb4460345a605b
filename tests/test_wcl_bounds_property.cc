// The headline property of the paper, checked empirically: for every
// configuration in a (notation x seed) grid, the observed service latency
// of every LLC request stays within the analytical WCL bound —
// Theorem 4.8 for SS, Theorem 4.7 for NSS, the derived (2N+1)-slot bound
// for private partitions.
//
// Workloads use single-set partitions (as in the paper's Section 5.1) to
// force maximal conflict pressure.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/wcl_analysis.h"
#include "mem/memory_backend.h"
#include "sim/replay.h"
#include "sim/runner.h"
#include "sim/workload.h"

namespace psllc::core {
namespace {

struct GridParam {
  std::string notation;
  int cores;
  std::uint64_t seed;
};

class WclBoundHolds : public ::testing::TestWithParam<GridParam> {};

TEST_P(WclBoundHolds, ObservedNeverExceedsAnalytical) {
  const GridParam& param = GetParam();
  const ExperimentSetup setup = make_paper_setup(param.notation, param.cores);
  sim::RandomWorkloadOptions workload;
  workload.range_bytes = 16384;  // far beyond every partition: all conflict
  workload.accesses = 4000;
  workload.write_fraction = 0.4;
  const auto traces = sim::make_disjoint_random_workload(
      param.cores, workload, param.seed);
  const sim::RunMetrics metrics = sim::run_experiment(setup, traces);
  ASSERT_TRUE(metrics.completed);
  ASSERT_GT(metrics.llc_requests, 0);
  EXPECT_LE(metrics.observed_wcl, metrics.analytical_wcl)
      << param.notation << " seed " << param.seed;
}

std::vector<GridParam> make_grid() {
  std::vector<GridParam> grid;
  const std::vector<std::pair<std::string, int>> configs = {
      {"SS(1,2,4)", 4}, {"SS(1,4,4)", 4},  {"SS(1,2,2)", 2},
      {"NSS(1,2,4)", 4}, {"NSS(1,4,4)", 4}, {"NSS(1,2,2)", 2},
      {"NSS(1,16,4)", 4}, {"P(1,2)", 4},    {"P(1,4)", 2},
      {"SS(2,2,3)", 3},  {"NSS(2,2,3)", 3},
  };
  for (const auto& [notation, cores] : configs) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      grid.push_back(GridParam{notation, cores, seed});
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WclBoundHolds, ::testing::ValuesIn(make_grid()),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      std::string name = info.param.notation + "_s" +
                         std::to_string(info.param.seed);
      for (char& ch : name) {
        if (ch == '(' || ch == ')' || ch == ',') {
          ch = '_';
        }
      }
      return name;
    });

// The same headline property swept across every memory backend: the WCL
// theorems only assume the slot absorbs the backend's worst-case access
// latency (SystemConfig::validate enforces it per backend), so the bounds
// must stay valid no matter which memory model services the fills.
struct BackendGridParam {
  std::string label;
  mem::DramConfig dram;
  std::string notation;
  int cores;
  std::uint64_t seed;
};

class WclBoundHoldsPerBackend
    : public ::testing::TestWithParam<BackendGridParam> {};

TEST_P(WclBoundHoldsPerBackend, ObservedNeverExceedsAnalytical) {
  const BackendGridParam& param = GetParam();
  ExperimentSetup setup = make_paper_setup(param.notation, param.cores);
  setup.config.dram = param.dram;
  setup.config.validate();
  sim::RandomWorkloadOptions workload;
  workload.range_bytes = 16384;
  workload.accesses = 3000;
  workload.write_fraction = 0.4;
  const auto traces =
      sim::make_disjoint_random_workload(param.cores, workload, param.seed);
  const sim::RunMetrics metrics = sim::run_experiment(setup, traces);
  ASSERT_TRUE(metrics.completed);
  ASSERT_GT(metrics.llc_requests, 0);
  EXPECT_LE(metrics.observed_wcl, metrics.analytical_wcl)
      << param.label << " " << param.notation << " seed " << param.seed;
  // The backend-supplied slot term held too: no access above the bound the
  // slot was sized against.
  EXPECT_LE(metrics.memory.max_latency,
            setup.config.dram.worst_case_latency());
}

std::vector<BackendGridParam> make_backend_grid() {
  const std::vector<std::pair<std::string, int>> configs = {
      {"SS(1,2,4)", 4}, {"NSS(1,2,4)", 4},
      {"SS(1,2,2)", 2}, {"NSS(1,2,2)", 2}, {"P(1,2)", 4},
  };
  std::vector<BackendGridParam> grid;
  for (const mem::BackendVariant& variant :
       mem::registered_backend_variants()) {
    for (const auto& [notation, cores] : configs) {
      for (std::uint64_t seed : {11ULL, 12ULL}) {
        grid.push_back(BackendGridParam{variant.label, variant.config,
                                        notation, cores, seed});
      }
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    BackendGrid, WclBoundHoldsPerBackend,
    ::testing::ValuesIn(make_backend_grid()),
    [](const ::testing::TestParamInfo<BackendGridParam>& info) {
      std::string name = info.param.label + "_" + info.param.notation + "_s" +
                         std::to_string(info.param.seed);
      for (char& ch : name) {
        if (ch == '(' || ch == ')' || ch == ',') {
          ch = '_';
        }
      }
      return name;
    });

// --- transient WCL bound (dynamic repartitioning) -------------------------

llc::PartitionProgram two_mode_program(const ExperimentSetup& setup,
                                       int way_bounce, Cycle epoch) {
  llc::PartitionProgram program(setup.partitions());
  program.add_mode(llc::make_way_bounced_map(setup.partitions(), way_bounce),
                   epoch, {}, "bounce");
  return program;
}

// For static programs the transient bound degenerates to the steady bound.
TEST(TransientWclBound, StaticProgramEqualsSteadyBound) {
  for (const char* notation : {"SS(1,2,4)", "NSS(1,2,4)", "P(1,2)"}) {
    const ExperimentSetup setup = make_paper_setup(notation, 4);
    EXPECT_EQ(transient_wcl_cycles(setup, CoreId{0}),
              analytical_wcl_cycles(setup, CoreId{0}))
        << notation;
  }
}

// A real transition adds drain and requeue terms: the transient bound must
// strictly dominate the steady bound, and the term decomposition must add
// up.
TEST(TransientWclBound, DynamicProgramDominatesSteadyAndDecomposes) {
  for (const char* notation : {"SS(32,2,2)", "NSS(32,2,2)", "P(8,2)"}) {
    ExperimentSetup setup = make_paper_setup(notation, 2);
    setup.program = two_mode_program(setup, 2, 600);
    const Cycle steady = analytical_wcl_cycles(setup, CoreId{0});
    const Cycle transient = transient_wcl_cycles(setup, CoreId{0});
    EXPECT_GT(transient, steady) << notation;
    const TransientWclTerms terms = transient_wcl_terms(
        setup.config, setup.program.mode(0).map, setup.program.mode(1).map,
        CoreId{0});
    EXPECT_EQ(terms.total(),
              terms.steady_bound + terms.drain_bound + terms.requeue_bound)
        << notation;
    EXPECT_GT(terms.moved_entries, 0) << notation;
    EXPECT_GE(terms.steady_bound, steady) << notation;
  }
}

// More moved slot entries can only raise the drain term: the bound is
// monotone in the way-bounce distance.
TEST(TransientWclBound, MonotoneInWayBounce) {
  const ExperimentSetup setup = make_paper_setup("SS(32,2,2)", 2);
  Cycle previous = 0;
  for (const int bounce : {0, 1, 2, 4}) {
    const TransientWclTerms terms = transient_wcl_terms(
        setup.config, setup.partitions(),
        llc::make_way_bounced_map(setup.partitions(), bounce), CoreId{0});
    EXPECT_GE(terms.total(), previous) << "bounce " << bounce;
    previous = terms.total();
  }
}

// count_moved_slots: identical maps move nothing; a one-way shift of a
// 32-set x 2-way rectangle moves every covered slot of both rectangles'
// symmetric difference.
TEST(TransientWclBound, CountMovedSlots) {
  const ExperimentSetup setup = make_paper_setup("SS(32,2,2)", 2);
  EXPECT_EQ(count_moved_slots(setup.partitions(), setup.partitions()), 0);
  const llc::PartitionMap bounced =
      llc::make_way_bounced_map(setup.partitions(), 1);
  EXPECT_GT(count_moved_slots(setup.partitions(), bounced), 0);
}

// The empirical transient property on a live two-transition run: every
// request in flight across a transition window finishes within the
// transient bound.
TEST(TransientWclBound, ObservedTransientWithinBound) {
  for (std::uint64_t seed : {41ULL, 42ULL}) {
    ExperimentSetup setup = make_paper_setup("SS(32,2,2)", 2);
    llc::PartitionProgram program(setup.partitions());
    program.add_mode(llc::make_way_bounced_map(setup.partitions(), 2), 600,
                     {}, "bounce");
    program.add_mode(setup.partitions(), 1200, {}, "restore");
    setup.program = std::move(program);
    sim::RandomWorkloadOptions workload;
    workload.range_bytes = 16384;
    workload.accesses = 3000;
    workload.write_fraction = 0.5;
    const auto traces = sim::make_disjoint_random_workload(2, workload, seed);
    const sim::RunMetrics metrics = sim::run_experiment(setup, traces);
    ASSERT_TRUE(metrics.completed) << seed;
    EXPECT_GE(metrics.llc_stats.repartitions, 1) << seed;
    EXPECT_GT(metrics.transient_analytical_wcl, metrics.analytical_wcl)
        << seed;
    if (metrics.observed_transient_wcl != kNoCycle) {
      EXPECT_LE(metrics.observed_transient_wcl,
                metrics.transient_analytical_wcl)
          << seed;
    }
  }
}

// The analytical hierarchy the paper reports: P bound < SS bound < NSS
// bound for shared configurations on the same platform.
TEST(WclBoundHierarchy, PrivateBelowSequencerBelowBestEffort) {
  const Cycle p = analytical_wcl_cycles(make_paper_setup("P(1,2)", 4),
                                        CoreId{0});
  const Cycle ss = analytical_wcl_cycles(make_paper_setup("SS(1,2,4)", 4),
                                         CoreId{0});
  const Cycle nss = analytical_wcl_cycles(make_paper_setup("NSS(1,2,4)", 4),
                                          CoreId{0});
  EXPECT_LT(p, ss);
  EXPECT_LT(ss, nss);
}

// Sharing with the sequencer also beats NSS empirically under heavy
// conflict (the paper's Figure 7 observation).
TEST(WclBoundHierarchy, ObservedSsBelowNssUnderConflictPressure) {
  sim::RandomWorkloadOptions workload;
  workload.range_bytes = 16384;
  workload.accesses = 8000;
  workload.write_fraction = 0.4;
  const auto traces = sim::make_disjoint_random_workload(4, workload, 99);
  const auto ss_metrics = sim::run_experiment(
      make_paper_setup("SS(1,4,4)", 4), traces);
  const auto nss_metrics = sim::run_experiment(
      make_paper_setup("NSS(1,4,4)", 4), traces);
  ASSERT_TRUE(ss_metrics.completed);
  ASSERT_TRUE(nss_metrics.completed);
  EXPECT_LT(ss_metrics.observed_wcl, nss_metrics.observed_wcl);
}

}  // namespace
}  // namespace psllc::core
