// micro_replay_throughput — wall-clock replay throughput (trace ops/sec)
// of the tight struct-of-arrays kernel vs the legacy core::System slot
// loop, over workload regimes chosen to span the kernel's win profile:
// solo replay on a multi-core system and think-time gaps (many idle slots
// the kernel skips outright), a cache-resident footprint (local fast
// path), and dense bus-saturated traffic (worst case, near parity).
//
// The result store stays byte-deterministic and wall-clock never gates a
// claim: the Mops/s lines go to the console only, the stored series carries
// the simulated metrics and the per-workload engine-agreement verdict, and
// the one claim records that the engines agreed bit-for-bit everywhere.
// Throughput over time is tracked by perfbench/.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "sim/replay.h"
#include "sim/workload.h"

namespace {

using namespace psllc;  // NOLINT

struct EngineRun {
  sim::RunMetrics metrics;  ///< from the warmup replay
  double seconds = 0;       ///< wall time of the timed repetitions
};

EngineRun run_engine(const sim::ReplayRequest& base, sim::ReplayEngine engine,
                     int reps) {
  sim::ReplayRequest request = base;
  request.engine = engine;
  EngineRun run;
  run.metrics = sim::replay(request).metrics;  // warmup + verdict capture
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    (void)sim::replay(request);
  }
  run.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return run;
}

int run(bench::BenchContext& ctx) {
  bench::print_header(
      "Replay kernel throughput: SoA kernel vs legacy slot loop",
      "repo evaluation; kernel contract in src/sim/kernel.h");

  const int accesses = ctx.pick(60000, 12000);
  const int reps = ctx.pick(5, 2);

  struct Workload {
    const char* name = "";
    const char* notation = "";  ///< LLC partition notation (4 active cores)
    int cores = 0;              ///< traces generated; the system has 4 cores
    std::int64_t range_bytes = 0;
    double write_fraction = 0;
    Cycle gap = 0;
  };
  // Periodic safety-critical tasks spend most bus slots idle: activation
  // gaps of hundreds of slot widths between accesses (tens of us at
  // realistic clocks), a solo criticality level on a multi-core system, a
  // cache-resident working set. Those are the regimes the kernel's exact
  // slot-skip targets; dense keeps the comparison honest at the bus-saturated
  // end where slot-skipping buys nothing. Gaps are sized so every run
  // finishes inside the default 2e9-cycle horizon at the full profile.
  const Workload workloads[] = {
      {"solo_periodic", "SS(1,4,4)", 1, 32768, 0.25, 20000},
      {"periodic", "SS(1,4,4)", 4, 32768, 0.25, 24000},
      {"resident_gap", "P(32,4)", 4, 2048, 0.25, 4000},
      {"dense", "SS(1,4,4)", 4, 65536, 0.5, 0},
  };

  results::BenchResult res(ctx.make_meta(
      "micro_replay_throughput",
      "Replay kernel throughput: SoA kernel vs legacy slot loop",
      "repo evaluation; kernel contract in src/sim/kernel.h"));
  res.meta().set_param("accesses", std::to_string(accesses));
  res.meta().set_param("reps", std::to_string(reps));
  results::Series& series = res.add_series(
      "replay_cells",
      {{"workload", results::ColumnType::kText, results::ColumnKind::kExact,
        ""},
       {"ops", results::ColumnType::kInt, results::ColumnKind::kExact,
        "ops"},
       {"llc_requests", results::ColumnType::kInt,
        results::ColumnKind::kExact, "requests"},
       {"makespan", results::ColumnType::kInt, results::ColumnKind::kExact,
        "cycles"},
       {"engines_match", results::ColumnType::kInt,
        results::ColumnKind::kExact, "bool"}});

  bool all_match = true;
  double kernel_seconds = 0;
  double legacy_seconds = 0;
  for (const Workload& workload : workloads) {
    sim::RandomWorkloadOptions options;
    options.range_bytes = workload.range_bytes;
    options.accesses = accesses;
    options.write_fraction = workload.write_fraction;
    options.gap = workload.gap;
    const std::vector<core::Trace> traces = sim::make_disjoint_random_workload(
        workload.cores, options, 0x7e9);
    const core::ExperimentSetup setup =
        core::make_paper_setup(workload.notation, 4);
    sim::ReplayRequest request;
    request.setup = &setup;
    request.workload.per_core = &traces;

    const EngineRun kernel =
        run_engine(request, sim::ReplayEngine::kKernel, reps);
    const EngineRun legacy =
        run_engine(request, sim::ReplayEngine::kLegacy, reps);
    const bool match = kernel.metrics == legacy.metrics;
    all_match = all_match && match;
    kernel_seconds += kernel.seconds;
    legacy_seconds += legacy.seconds;

    const std::int64_t ops =
        static_cast<std::int64_t>(workload.cores) * accesses;
    const double kernel_rate =
        kernel.seconds > 0 ? ops * reps / kernel.seconds : 0;
    const double legacy_rate =
        legacy.seconds > 0 ? ops * reps / legacy.seconds : 0;
    std::printf("%-10s %9.2f Mops/s kernel | %9.2f Mops/s legacy | %5.2fx%s\n",
                workload.name, kernel_rate / 1e6, legacy_rate / 1e6,
                kernel_rate > 0 && legacy_rate > 0
                    ? legacy.seconds / kernel.seconds
                    : 0.0,
                match ? "" : "  METRICS MISMATCH");

    series.add_row({results::Value::of_text(workload.name),
                    results::Value::of_int(ops),
                    results::Value::of_int(kernel.metrics.llc_requests),
                    results::Value::of_int(
                        static_cast<std::int64_t>(kernel.metrics.makespan)),
                    results::Value::of_int(match ? 1 : 0)});
  }

  const double speedup =
      kernel_seconds > 0 ? legacy_seconds / kernel_seconds : 0;
  std::printf("aggregate: %.2fx kernel over legacy (%.3fs vs %.3fs wall)\n",
              speedup, kernel_seconds, legacy_seconds);

  res.add_claim("kernel_matches_legacy", all_match);
  return bench::finish_bench(ctx, res);
}

}  // namespace

PSLLC_REGISTER_BENCH(micro_replay_throughput, run)
