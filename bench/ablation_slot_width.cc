// Ablation A2 — TDM slot width. The analytical WCLs scale linearly with
// S_W (Theorems 4.7/4.8 count slots); a narrower slot lowers latency bounds
// but must still absorb an LLC fill (lookup + DRAM). This bench sweeps S_W
// and reports bounds, observed WCL, and execution time.
#include <string>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "sim/runner.h"
#include "sim/workload.h"

namespace {

using namespace psllc;       // NOLINT
using namespace psllc::sim;  // NOLINT

constexpr char kTitle[] = "Ablation: TDM slot width sweep";
constexpr char kReference[] =
    "Wu & Patel, DAC'22, system model Section 3 (slot-based bounds)";

int run(bench::BenchContext& ctx) {
  bench::print_header(kTitle, kReference);

  RandomWorkloadOptions workload;
  workload.range_bytes = 8192;
  workload.accesses = ctx.pick(15000, 3000);
  workload.write_fraction = 0.25;

  results::BenchResult res(
      ctx.make_meta("ablation_slot_width", kTitle, kReference));
  res.meta().set_param("seed", "31");
  res.meta().set_param("accesses_per_core",
                       std::to_string(workload.accesses));
  auto& series = res.add_series(
      "slot_width",
      {{"slot_width", results::ColumnType::kInt, "cycles"},
       {"analytical_wcl", results::ColumnType::kInt, "cycles"},
       {"observed_wcl", results::ColumnType::kInt, "cycles"},
       {"makespan", results::ColumnType::kInt, "cycles"},
       {"bound_holds", results::ColumnType::kText, ""}});
  bool all_hold = true;
  for (const Cycle slot_width : {35, 50, 75, 100, 200}) {
    auto setup = core::make_paper_setup("SS(1,4,4)", 4);
    setup.config.slot_width = slot_width;
    const auto traces = make_disjoint_random_workload(4, workload, 31);
    const RunMetrics metrics = run_experiment(setup, traces);
    const bool holds =
        metrics.completed && metrics.observed_wcl <= metrics.analytical_wcl;
    all_hold = all_hold && holds;
    series.add_row({results::Value::of_int(slot_width),
                    results::Value::of_int(metrics.analytical_wcl),
                    results::Value::of_cycles(metrics.observed_wcl,
                                              metrics.completed),
                    results::Value::of_cycles(metrics.makespan,
                                              metrics.completed),
                    results::Value::of_text(holds ? "yes" : "NO")});
  }
  res.add_claim("bounds scale with S_W and hold", all_hold);
  return bench::finish_bench(ctx, res);
}

}  // namespace

PSLLC_REGISTER_BENCH(ablation_slot_width, run)
