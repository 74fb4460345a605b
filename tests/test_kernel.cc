// Differential battery for the replay kernel (sim/kernel.h): across a
// randomized (backend variant × partition notation × workload shape) grid,
// the kernel and the legacy core::System slot loop must produce
// bit-identical RunMetrics — every scalar, every per-core vector, every
// LLC and memory counter. Also covers the shared/mirrored and mapped-view
// workloads, eligibility fallbacks (the auto engine must take legacy AND
// still match), and the forced-kernel rejection of ineligible requests.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/log.h"
#include "mem/memory_backend.h"
#include "sim/experiment.h"
#include "sim/replay.h"
#include "sim/workload.h"
#include "trace/binary_io.h"
#include "trace/mapped_trace.h"

namespace psllc::sim {
namespace {

/// Runs `request` once per engine (forced) and checks the engines really
/// were taken; returns {kernel, legacy} metrics.
std::pair<RunMetrics, RunMetrics> run_both(ReplayRequest request,
                                           const std::string& label) {
  request.engine = ReplayEngine::kKernel;
  const ReplayResult kernel = replay(request);
  EXPECT_TRUE(kernel.used_kernel) << label;
  request.engine = ReplayEngine::kLegacy;
  const ReplayResult legacy = replay(request);
  EXPECT_FALSE(legacy.used_kernel) << label;
  return {kernel.metrics, legacy.metrics};
}

/// Workload shapes chosen to stress different kernel regimes: dense
/// LLC-heavy traffic (bus saturated, no slot skipped), cache-resident
/// small footprints (local fast path), think-time gaps (idle-slot
/// skipping), and a write-heavy mix (eviction/write-back traffic).
struct Shape {
  const char* name;
  std::int64_t range_bytes;
  int accesses;
  double write_fraction;
  Cycle gap;
};

constexpr Shape kShapes[] = {
    {"dense", 65536, 1500, 0.4, 0},
    {"resident", 2048, 1500, 0.25, 0},
    {"gappy", 32768, 800, 0.25, 9},
    {"writeheavy", 32768, 1200, 0.9, 0},
};

TEST(KernelDifferential, MatchesLegacyAcrossBackendsNotationsAndShapes) {
  const char* notations[] = {"SS(1,4,4)", "NSS(1,4,4)", "SS(2,2,4)",
                             "NSS(32,2,4)", "P(1,2)"};
  std::uint64_t seed = 555;
  for (const mem::BackendVariant& variant :
       mem::registered_backend_variants()) {
    for (const char* notation : notations) {
      const Shape& shape = kShapes[seed % std::size(kShapes)];
      ++seed;
      RandomWorkloadOptions workload;
      workload.range_bytes = shape.range_bytes;
      workload.accesses = shape.accesses;
      workload.write_fraction = shape.write_fraction;
      workload.gap = shape.gap;
      const std::vector<core::Trace> traces =
          make_disjoint_random_workload(4, workload, seed);
      core::ExperimentSetup setup = core::make_paper_setup(notation, 4);
      setup.config.dram = variant.config;
      setup.config.validate();
      ReplayRequest request;
      request.setup = &setup;
      request.workload.per_core = &traces;
      const std::string label =
          variant.label + " " + notation + " " + shape.name;
      const auto [kernel, legacy] = run_both(request, label);
      EXPECT_TRUE(kernel == legacy) << label;
      EXPECT_TRUE(legacy.completed) << label;
    }
  }
}

// A horizon shorter than the workload: both engines must agree on the
// incomplete outcome too (end_cycle pinned to the horizon, DNF per-core
// finish markers, identical partial counters).
TEST(KernelDifferential, MatchesLegacyOnTruncatedHorizon) {
  RandomWorkloadOptions workload;
  workload.range_bytes = 65536;
  workload.accesses = 4000;
  const std::vector<core::Trace> traces =
      make_disjoint_random_workload(4, workload, 9001);
  const core::ExperimentSetup setup = core::make_paper_setup("SS(1,4,4)", 4);
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  request.options.max_cycles = 20000;
  const auto [kernel, legacy] = run_both(request, "truncated");
  EXPECT_FALSE(legacy.completed);
  EXPECT_TRUE(kernel == legacy) << "truncated";
}

// Fewer traces than cores (idle cores) and the empty-trace edge.
TEST(KernelDifferential, MatchesLegacyWithIdleCores) {
  RandomWorkloadOptions workload;
  workload.range_bytes = 16384;
  workload.accesses = 1000;
  std::vector<core::Trace> traces =
      make_disjoint_random_workload(2, workload, 321);
  traces.push_back(core::Trace{});  // explicitly empty third core
  const core::ExperimentSetup setup = core::make_paper_setup("SS(1,4,4)", 4);
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  const auto [kernel, legacy] = run_both(request, "idle cores");
  EXPECT_TRUE(kernel == legacy) << "idle cores";
}

// Shared-trace replay, solo and mirrored into per-core windows — the
// corpus runner's two workload forms.
TEST(KernelDifferential, MatchesLegacyOnSharedWorkloads) {
  RandomWorkloadOptions workload;
  workload.range_bytes = 16384;
  workload.accesses = 1200;
  workload.write_fraction = 0.5;
  const core::Trace trace = make_uniform_random_trace(0, workload, 777);
  const core::ExperimentSetup setup = core::make_paper_setup("NSS(1,4,4)", 4);
  for (const int replicas : {1, 4}) {
    ReplayRequest request;
    request.setup = &setup;
    request.workload.shared = &trace;
    request.workload.replicas = replicas;
    request.workload.window = replicas > 1 ? Addr{1} << 20 : 0;
    const std::string label = "shared x" + std::to_string(replicas);
    const auto [kernel, legacy] = run_both(request, label);
    EXPECT_TRUE(kernel == legacy) << label;
  }
}

// The mapped-view workload: the kernel batch-decodes records straight off
// the .pslt mmap; legacy materializes the view. Same metrics either way,
// and identical to replaying the materialized trace.
TEST(KernelDifferential, MatchesLegacyOnMappedView) {
  RandomWorkloadOptions workload;
  workload.range_bytes = 32768;
  workload.accesses = 1500;
  const core::Trace trace = make_uniform_random_trace(0, workload, 4242);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "psllc_kernel_view.pslt";
  trace::write_trace_binary_file(path.string(), trace, {});
  const trace::MappedTrace view(path.string());
  const core::ExperimentSetup setup = core::make_paper_setup("SS(1,4,4)", 4);

  ReplayRequest request;
  request.setup = &setup;
  request.workload.shared_view = &view;
  request.workload.replicas = 4;
  request.workload.window = Addr{1} << 20;
  const auto [kernel, legacy] = run_both(request, "mapped view");
  EXPECT_TRUE(kernel == legacy) << "mapped view";

  ReplayRequest materialized = request;
  materialized.workload.shared_view = nullptr;
  materialized.workload.shared = &trace;
  materialized.engine = ReplayEngine::kKernel;
  EXPECT_TRUE(replay(materialized).metrics == legacy)
      << "view vs materialized";
  std::filesystem::remove(path);
}

ReplayRequest small_request(const core::ExperimentSetup& setup,
                            const std::vector<core::Trace>& traces) {
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  return request;
}

// Eligibility fallbacks: the auto engine must decline the kernel (and the
// result must still match) whenever legacy-only observability is on.
TEST(KernelEligibility, AutoFallsBackAndStillMatches) {
  RandomWorkloadOptions workload;
  workload.range_bytes = 8192;
  workload.accesses = 600;
  const std::vector<core::Trace> traces =
      make_disjoint_random_workload(4, workload, 88);

  // Baseline: eligible, auto takes the kernel.
  core::ExperimentSetup setup = core::make_paper_setup("SS(1,4,4)", 4);
  {
    const ReplayRequest request = small_request(setup, traces);
    EXPECT_TRUE(kernel_eligible(request));
    const ReplayResult result = replay(request);
    EXPECT_TRUE(result.used_kernel);
  }

  // keep_request_records needs the legacy per-slot presentation order.
  core::ExperimentSetup records = setup;
  records.config.keep_request_records = true;
  {
    const ReplayRequest request = small_request(records, traces);
    EXPECT_FALSE(kernel_eligible(request));
    const ReplayResult result = replay(request);
    EXPECT_FALSE(result.used_kernel);
    ReplayRequest forced = request;
    forced.engine = ReplayEngine::kLegacy;
    EXPECT_TRUE(result.metrics == replay(forced).metrics)
        << "keep_request_records fallback";
  }

  // Debug logging: the kernel skips idle slots, so it cannot reproduce the
  // per-slot log stream; auto must run legacy.
  const LogLevel saved = Logger::instance().level();
  Logger::instance().set_level(LogLevel::kDebug);
  {
    const ReplayRequest request = small_request(setup, traces);
    EXPECT_FALSE(kernel_eligible(request));
    EXPECT_FALSE(replay(request).used_kernel);
  }
  Logger::instance().set_level(saved);

  // Forced legacy is always honored.
  {
    ReplayRequest request = small_request(setup, traces);
    request.engine = ReplayEngine::kLegacy;
    EXPECT_FALSE(replay(request).used_kernel);
  }
}

TEST(KernelEligibility, ForcedKernelRejectsIneligibleRequest) {
  RandomWorkloadOptions workload;
  workload.accesses = 50;
  const std::vector<core::Trace> traces =
      make_disjoint_random_workload(2, workload, 5);
  core::ExperimentSetup setup = core::make_paper_setup("SS(1,4,4)", 4);
  setup.config.keep_request_records = true;
  ReplayRequest request = small_request(setup, traces);
  request.engine = ReplayEngine::kKernel;
  EXPECT_THROW((void)replay(request), ConfigError);
}

TEST(KernelEligibility, ExactlyOneWorkloadSourceRequired) {
  const core::ExperimentSetup setup = core::make_paper_setup("SS(1,4,4)", 4);
  ReplayRequest request;
  request.setup = &setup;
  EXPECT_THROW((void)replay(request), ConfigError);  // no source at all
  const core::Trace trace{core::MemOp{0, AccessType::kRead, 0}};
  const std::vector<core::Trace> traces{trace};
  request.workload.per_core = &traces;
  request.workload.shared = &trace;
  EXPECT_THROW((void)replay(request), ConfigError);  // two sources
}

// The sweep harness must stay bit-identical across worker-thread counts
// with the kernel on the hot path (cells route through ReplayEngine::kAuto).
TEST(KernelDifferential, SweepDeterministicAcrossThreadCounts) {
  SweepOptions serial;
  serial.address_ranges = {4096, 32768};
  serial.accesses_per_core = 1000;
  serial.seed = 31;
  serial.threads = 1;
  SweepOptions parallel = serial;
  parallel.threads = 4;
  const std::vector<SweepConfig> configs = {{"SS(1,4,4)", 4},
                                            {"NSS(1,4,4)", 4}};
  const SweepResult a = run_sweep(configs, serial);
  const SweepResult b = run_sweep(configs, parallel);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_TRUE(a.cells[i].metrics == b.cells[i].metrics) << "cell " << i;
  }
}

}  // namespace
}  // namespace psllc::sim
