// Ablation A1 — replacement policy. The paper's analysis (Section 4.3)
// claims the bounds are agnostic of the replacement policy ("a replacement
// policy that can select any of the cache lines"). This bench runs the
// conflict-heavy Figure 7 workload under five policies and shows the
// observed WCL stays within the (policy-independent) analytical bound for
// each.
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "sim/runner.h"
#include "sim/workload.h"

namespace {

using namespace psllc;       // NOLINT
using namespace psllc::sim;  // NOLINT

constexpr char kTitle[] = "Ablation: replacement policy independence";
constexpr char kReference[] =
    "Wu & Patel, DAC'22, Section 4.3 (policy-agnostic analysis)";

int run(bench::BenchContext& ctx) {
  bench::print_header(kTitle, kReference);

  RandomWorkloadOptions workload;
  workload.range_bytes = 16384;
  workload.accesses = ctx.pick(20000, 4000);
  workload.write_fraction = 0.25;

  const mem::ReplacementKind kinds[] = {
      mem::ReplacementKind::kLru, mem::ReplacementKind::kFifo,
      mem::ReplacementKind::kRandom, mem::ReplacementKind::kNmru,
      mem::ReplacementKind::kTreePlru};
  const std::pair<const char*, int> configs[] = {{"SS(1,4,4)", 4},
                                                 {"NSS(1,4,4)", 4},
                                                 {"P(1,4)", 4}};

  results::BenchResult res(
      ctx.make_meta("ablation_replacement", kTitle, kReference));
  res.meta().set_param("seed", "21");
  res.meta().set_param("accesses_per_core",
                       std::to_string(workload.accesses));
  auto& series = res.add_series(
      "policy_wcl",
      {{"config", results::ColumnType::kText, ""},
       {"policy", results::ColumnType::kText, ""},
       {"observed_wcl", results::ColumnType::kInt, "cycles"},
       {"analytical_wcl", results::ColumnType::kInt, "cycles"},
       {"makespan", results::ColumnType::kInt, "cycles"},
       {"bound_holds", results::ColumnType::kText, ""}});
  bool all_hold = true;
  for (const auto& [notation, cores] : configs) {
    for (const auto kind : kinds) {
      auto setup = core::make_paper_setup(notation, cores);
      setup.config.llc.replacement = kind;
      const auto traces = make_disjoint_random_workload(cores, workload, 21);
      const RunMetrics metrics = run_experiment(setup, traces);
      const bool holds =
          metrics.completed && metrics.observed_wcl <= metrics.analytical_wcl;
      all_hold = all_hold && holds;
      series.add_row({results::Value::of_text(notation),
                      results::Value::of_text(to_string(kind)),
                      results::Value::of_cycles(metrics.observed_wcl,
                                                metrics.completed),
                      results::Value::of_int(metrics.analytical_wcl),
                      results::Value::of_cycles(metrics.makespan,
                                                metrics.completed),
                      results::Value::of_text(holds ? "yes" : "NO")});
    }
  }
  res.add_claim("bounds hold under every policy", all_hold);
  return bench::finish_bench(ctx, res);
}

}  // namespace

PSLLC_REGISTER_BENCH(ablation_replacement, run)
