// Ablation A6 — memory backends. The paper's WCL theorems assume only that
// an LLC fill completes within the requester's TDM slot, with the memory
// term of that constraint supplied by the backend model
// (mem/memory_backend.h). This bench sweeps every registered backend —
// fixed-latency (paper), bank/row-conflict open- and closed-page, and the
// batched write-queue — over the Figure 8 workloads and compares, per
// backend: the analytical system WCL against the observed worst service
// latency, and the backend's exported worst-case access latency against the
// worst access latency it actually served. Because the slot absorbs every
// backend's worst case, system timing must be backend-invariant — checked
// as a claim; what changes across backends is the slot-width requirement
// and the memory-level behavior (row hits, queue depth, back-pressure).
#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "core/wcl_analysis.h"
#include "mem/memory_backend.h"
#include "sim/experiment.h"

namespace {

using namespace psllc;       // NOLINT
using namespace psllc::sim;  // NOLINT

constexpr char kTitle[] =
    "Ablation: memory backends — analytical WCL vs observed worst latency";
constexpr char kReference[] =
    "system-model slot constraint of Section 3; backend sensitivity per "
    "Bansal et al. (Cache Where you Want!) and Pedroni 2026";

int run(bench::BenchContext& ctx) {
  bench::print_header(kTitle, kReference);

  // The Figure 8 workload grid (fig8_common.h): same seed, ranges, write
  // fraction, over the 2-core and 4-core capacity-matched panels.
  SweepOptions options;
  options.accesses_per_core = ctx.pick(20000, 4000);
  if (ctx.quick()) {
    options.address_ranges = {1024, 8192, 65536};
  }
  options.write_fraction = 0.25;
  options.seed = 8;
  options.threads = ctx.threads;
  const std::vector<SweepConfig> configs = {
      {"SS(32,2,2)", 2}, {"NSS(32,2,2)", 2}, {"P(8,2)", 2},
      {"SS(32,2,4)", 4}, {"NSS(32,2,4)", 4}, {"P(8,2)", 4},
  };

  results::BenchResult res(
      ctx.make_meta("ablation_dram_backend", kTitle, kReference));
  res.meta().set_param("seed", std::to_string(options.seed));
  res.meta().set_param("accesses_per_core",
                       std::to_string(options.accesses_per_core));

  auto& wcl_series = res.add_series(
      "backend_wcl",
      {{"backend", results::ColumnType::kText, ""},
       {"config", results::ColumnType::kText, ""},
       {"cores", results::ColumnType::kInt, ""},
       {"backend_worst_case", results::ColumnType::kInt, "cycles"},
       {"required_slot_width", results::ColumnType::kInt, "cycles"},
       {"slot_slack", results::ColumnType::kInt, "cycles"},
       {"analytical_wcl", results::ColumnType::kInt, "cycles"},
       {"observed_wcl", results::ColumnType::kInt, "cycles"},
       {"observed_mem_latency", results::ColumnType::kInt, "cycles"}});
  auto& behavior_series = res.add_series(
      "mem_behavior",
      {{"backend", results::ColumnType::kText, ""},
       {"config", results::ColumnType::kText, ""},
       {"cores", results::ColumnType::kInt, ""},
       {"row_hits", results::ColumnType::kInt, ""},
       {"row_misses", results::ColumnType::kInt, ""},
       {"queued_writes", results::ColumnType::kInt, ""},
       {"drained_writes", results::ColumnType::kInt, ""},
       {"write_stalls", results::ColumnType::kInt, ""},
       {"max_queue_depth", results::ColumnType::kInt, ""}});

  bool all_completed = true;
  bool system_bounds_hold = true;
  bool memory_bounds_hold = true;
  bool timing_backend_invariant = true;
  std::vector<SweepResult> per_backend;
  const std::vector<mem::BackendVariant> variants =
      mem::registered_backend_variants();
  per_backend.reserve(variants.size());

  for (const mem::BackendVariant& variant : variants) {
    SweepOptions backend_options = options;
    backend_options.dram = variant.config;
    const Cycle worst_case = variant.config.worst_case_latency();
    per_backend.push_back(run_sweep(configs, backend_options));
    const SweepResult& result = per_backend.back();

    for (int c = 0; c < static_cast<int>(configs.size()); ++c) {
      // Aggregate per configuration: the worst observation over the whole
      // address-range axis, against the (range-independent) bounds.
      Cycle observed_wcl = 0;
      Cycle observed_mem = 0;
      bool completed = true;
      mem::MemoryCounters totals;
      for (int r = 0; r < static_cast<int>(result.ranges.size()); ++r) {
        const RunMetrics& m = result.cell(r, c).metrics;
        completed = completed && m.completed;
        observed_wcl = std::max(observed_wcl, m.observed_wcl);
        observed_mem = std::max(observed_mem, m.memory.max_latency);
        totals.row_hits += m.memory.row_hits;
        totals.row_misses += m.memory.row_misses;
        totals.queued_writes += m.memory.queued_writes;
        totals.drained_writes += m.memory.drained_writes;
        totals.write_stalls += m.memory.write_stalls;
        totals.max_queue_depth =
            std::max(totals.max_queue_depth, m.memory.max_queue_depth);
        system_bounds_hold = system_bounds_hold && m.completed &&
                             m.observed_wcl <= m.analytical_wcl;
        memory_bounds_hold =
            memory_bounds_hold && m.memory.max_latency <= worst_case;
      }
      all_completed = all_completed && completed;

      const SweepConfig& config = configs[static_cast<std::size_t>(c)];
      core::ExperimentSetup setup =
          core::make_paper_setup(config.notation, config.active_cores);
      setup.config.dram = variant.config;
      wcl_series.add_row(
          {results::Value::of_text(variant.label),
           results::Value::of_text(config.notation),
           results::Value::of_int(config.active_cores),
           results::Value::of_int(worst_case),
           results::Value::of_int(core::required_slot_width(setup.config)),
           results::Value::of_int(core::slot_slack(setup.config)),
           results::Value::of_int(result.cell(0, c).metrics.analytical_wcl),
           results::Value::of_cycles(observed_wcl, completed),
           results::Value::of_cycles(observed_mem, completed)});
      behavior_series.add_row({results::Value::of_text(variant.label),
                               results::Value::of_text(config.notation),
                               results::Value::of_int(config.active_cores),
                               results::Value::of_int(totals.row_hits),
                               results::Value::of_int(totals.row_misses),
                               results::Value::of_int(totals.queued_writes),
                               results::Value::of_int(totals.drained_writes),
                               results::Value::of_int(totals.write_stalls),
                               results::Value::of_int(totals.max_queue_depth)});
    }
  }

  // The system-model claim behind the whole backend abstraction: once the
  // slot absorbs the backend's worst case, bus-level timing is identical
  // across backends (the traces are identical by construction).
  const SweepResult& baseline = per_backend.front();
  for (std::size_t b = 1; b < per_backend.size(); ++b) {
    const SweepResult& other = per_backend[b];
    for (std::size_t i = 0; i < baseline.cells.size(); ++i) {
      timing_backend_invariant =
          timing_backend_invariant &&
          baseline.cells[i].metrics.makespan == other.cells[i].metrics.makespan &&
          baseline.cells[i].metrics.observed_wcl ==
              other.cells[i].metrics.observed_wcl;
    }
  }

  res.add_claim("all configurations completed", all_completed);
  res.add_claim("observed WCL <= analytical bound for every backend",
                system_bounds_hold);
  res.add_claim("observed memory latency <= backend worst case",
                memory_bounds_hold);
  res.add_claim("system timing is backend-invariant",
                timing_backend_invariant);
  return bench::finish_bench(ctx, res);
}

}  // namespace

PSLLC_REGISTER_BENCH(ablation_dram_backend, run)
