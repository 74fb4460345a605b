// Ablation A3 — clean back-invalidations. The paper's figures charge a
// write-back slot for *every* back-invalidation (paper mode). A plausible
// hardware optimization acknowledges clean private copies silently. This
// bench compares both modes: latency improves (especially for read-heavy
// workloads), and the paper-mode analytical bounds remain conservative.
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "sim/runner.h"
#include "sim/workload.h"

namespace {

using namespace psllc;       // NOLINT
using namespace psllc::sim;  // NOLINT

constexpr char kTitle[] =
    "Ablation: clean back-invalidation costs a slot (paper) vs silent ack";
constexpr char kReference[] =
    "model decision from Figures 2-4 (every eviction shows 'WB l')";

int run(bench::BenchContext& ctx) {
  bench::print_header(kTitle, kReference);

  RandomWorkloadOptions workload;
  workload.range_bytes = 16384;
  workload.accesses = ctx.pick(20000, 4000);
  workload.write_fraction = 0.1;  // read-heavy: most copies are clean

  const std::pair<const char*, int> configs[] = {{"SS(1,4,4)", 4},
                                                 {"NSS(1,4,4)", 4},
                                                 {"P(1,4)", 4}};

  results::BenchResult res(
      ctx.make_meta("ablation_writeback", kTitle, kReference));
  res.meta().set_param("seed", "41");
  res.meta().set_param("accesses_per_core",
                       std::to_string(workload.accesses));
  auto& series = res.add_series(
      "clean_writeback",
      {{"config", results::ColumnType::kText, ""},
       {"clean_wb_mode", results::ColumnType::kText, ""},
       {"observed_wcl", results::ColumnType::kInt, "cycles"},
       {"analytical_wcl", results::ColumnType::kInt, "cycles"},
       {"makespan", results::ColumnType::kInt, "cycles"}});
  bool bounds_hold = true;
  bool silent_not_slower = true;
  for (const auto& [notation, cores] : configs) {
    Cycle paper_makespan = 0;
    for (const bool costs_slot : {true, false}) {
      auto setup = core::make_paper_setup(notation, cores);
      setup.config.llc.clean_back_inval_costs_slot = costs_slot;
      const auto traces = make_disjoint_random_workload(cores, workload, 41);
      const RunMetrics metrics = run_experiment(setup, traces);
      bounds_hold = bounds_hold && metrics.completed &&
                    metrics.observed_wcl <= metrics.analytical_wcl;
      if (costs_slot) {
        paper_makespan = metrics.makespan;
      } else {
        silent_not_slower =
            silent_not_slower && metrics.makespan <= paper_makespan;
      }
      series.add_row({results::Value::of_text(notation),
                      results::Value::of_text(costs_slot ? "slot (paper)"
                                                         : "silent"),
                      results::Value::of_cycles(metrics.observed_wcl,
                                                metrics.completed),
                      results::Value::of_int(metrics.analytical_wcl),
                      results::Value::of_cycles(metrics.makespan,
                                                metrics.completed)});
    }
  }
  res.add_claim("paper-mode bounds stay conservative", bounds_hold);
  res.add_claim("silent acks never slower", silent_not_slower);
  return bench::finish_bench(ctx, res);
}

}  // namespace

PSLLC_REGISTER_BENCH(ablation_writeback, run)
