// Repartition sweep — dynamic repartitioning under load. Runs two-transition
// partition programs (initial -> way-bounced -> restored) over a grid of
// way-bounce counts x trigger cadences x app-class clusterings, replaying
// every cell twice — skipping idle slots (sim::replay) and stepping every
// slot (sim::replay_every_slot) — and gates the two dynamic-repartitioning
// claims: the observed transient WCL (requests in flight across a
// drain/flush window) stays at or below the analytical transient bound
// (core/wcl_analysis transient_wcl_cycles), and the two replays agree on
// every RunMetrics field across every transition. The stored claim and
// column names keep their engine wording.
//
// The sweep is cell-sharded: one work unit per grid cell (sim/shard.h),
// one row per cell, so global row ordinals equal cell ordinals and
// tools/results_merge reassembles partial stores bit-identical to an
// unsharded run.
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "core/system_config.h"
#include "llc/partition.h"
#include "results/merge.h"
#include "sim/replay.h"
#include "sim/shard.h"
#include "sim/workload.h"

namespace {

using namespace psllc;       // NOLINT
using namespace psllc::sim;  // NOLINT

constexpr char kTitle[] =
    "Repartition sweep: transient WCL bound across mode transitions";
constexpr char kReference[] =
    "Wu & Patel, DAC'22, Theorems 4.7/4.8 extended to dynamic "
    "repartitioning transients";

struct GridConfig {
  const char* notation = "";
  int cores = 0;
};

/// How app-class labels cluster across the cores of one cell.
enum class Clustering { kClustered, kMixed };

[[nodiscard]] const char* to_string(Clustering c) {
  return c == Clustering::kClustered ? "clustered" : "mixed";
}

[[nodiscard]] llc::AppClass class_of(Clustering clustering, int core) {
  if (clustering == Clustering::kClustered) {
    return llc::AppClass::kStreaming;
  }
  switch (core % 3) {
    case 0:
      return llc::AppClass::kSensitive;
    case 1:
      return llc::AppClass::kLight;
    default:
      return llc::AppClass::kStreaming;
  }
}

/// Class-shaped per-core traces on disjoint address ranges: sensitive cores
/// pointer-chase a hot working set, streaming cores write-heavy random over
/// a wide range, light cores read-mostly random over a narrow one.
[[nodiscard]] std::vector<core::Trace> make_cell_traces(
    const std::vector<llc::AppClass>& classes, int accesses,
    std::uint64_t seed) {
  std::vector<core::Trace> traces;
  traces.reserve(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const Addr base = static_cast<Addr>(c) * 65536;
    switch (classes[c]) {
      case llc::AppClass::kSensitive:
        traces.push_back(
            make_pointer_chase_trace(base, 64, accesses, seed + c));
        break;
      case llc::AppClass::kStreaming: {
        RandomWorkloadOptions options;
        options.range_bytes = 32768;
        options.accesses = accesses;
        options.write_fraction = 0.6;
        traces.push_back(make_uniform_random_trace(base, options, seed + c));
        break;
      }
      case llc::AppClass::kLight: {
        RandomWorkloadOptions options;
        options.range_bytes = 4096;
        options.accesses = accesses;
        options.write_fraction = 0.1;
        traces.push_back(make_uniform_random_trace(base, options, seed + c));
        break;
      }
    }
  }
  return traces;
}

[[nodiscard]] std::string cell_key(const GridConfig& config, int way_bounce,
                                   int cadence_slots, Clustering clustering) {
  return std::string(config.notation) + "|c" +
         std::to_string(config.cores) + "|b" + std::to_string(way_bounce) +
         "|cad" + std::to_string(cadence_slots) + "|" +
         to_string(clustering);
}

int run(bench::BenchContext& ctx) {
  bench::print_header(kTitle, kReference);

  const int accesses = ctx.pick(3000, 600);
  const std::uint64_t seed = 97;
  std::vector<GridConfig> configs = {
      {"SS(32,2,2)", 2}, {"NSS(32,2,2)", 2}, {"P(8,2)", 2}};
  if (!ctx.quick()) {
    configs.push_back({"SS(32,2,4)", 4});
    configs.push_back({"NSS(32,2,4)", 4});
    configs.push_back({"P(8,2)", 4});
  }
  const std::vector<int> way_bounces = ctx.quick()
                                           ? std::vector<int>{1, 2}
                                           : std::vector<int>{1, 2, 4};
  const std::vector<int> cadences = ctx.quick()
                                        ? std::vector<int>{12, 32}
                                        : std::vector<int>{12, 32, 96};
  const Clustering clusterings[] = {Clustering::kClustered,
                                    Clustering::kMixed};

  // Cell-level work-unit plan: unit ordinal == row ordinal (one row per
  // cell), so merged rows land exactly where an unsharded run emits them.
  std::vector<std::pair<std::string, std::string>> grid_params = {
      {"profile", bench::to_string(ctx.profile)},
      {"seed", std::to_string(seed)},
      {"accesses", std::to_string(accesses)}};
  ShardPlan plan("repartition_sweep", std::move(grid_params),
                 ctx.sharded() ? ctx.shard_count : 1);
  for (const GridConfig& config : configs) {
    for (const int way_bounce : way_bounces) {
      for (const int cadence : cadences) {
        for (const Clustering clustering : clusterings) {
          plan.add_unit("repartition_sweep",
                        cell_key(config, way_bounce, cadence, clustering));
        }
      }
    }
  }

  std::vector<bool> mask;
  std::vector<std::size_t> owned;
  if (ctx.sharded()) {
    const ShardSpec spec{ctx.shard_index, ctx.shard_count};
    if (!ctx.manifest_path.empty()) {
      plan.write_or_verify(ctx.manifest_path);
    }
    owned = plan.owned_ordinals(spec);
    std::printf("[shard] %d/%d: %zu of %zu cells\n", ctx.shard_index,
                ctx.shard_count, owned.size(), plan.units().size());
    if (owned.empty()) {
      std::printf("[shard] nothing to run on this shard\n");
      return 0;
    }
    mask.assign(plan.units().size(), false);
    for (const std::size_t ordinal : owned) {
      mask[ordinal] = true;
    }
  }

  results::BenchResult res(
      ctx.make_meta("repartition_sweep", kTitle, kReference));
  res.meta().set_param("seed", std::to_string(seed));
  res.meta().set_param("accesses", std::to_string(accesses));

  auto& series = res.add_series(
      "repartition_cells",
      {{"config", results::ColumnType::kText, ""},
       {"cores", results::ColumnType::kInt, ""},
       {"way_bounce", results::ColumnType::kInt, ""},
       {"cadence_slots", results::ColumnType::kInt, ""},
       {"clustering", results::ColumnType::kText, ""},
       {"analytical_wcl", results::ColumnType::kInt, "cycles"},
       {"transient_bound", results::ColumnType::kInt, "cycles"},
       {"observed_wcl", results::ColumnType::kInt, "cycles"},
       {"observed_transient_wcl", results::ColumnType::kInt, "cycles"},
       {"repartitions", results::ColumnType::kInt, ""},
       {"drain_writebacks", results::ColumnType::kInt, ""},
       {"drain_back_invals", results::ColumnType::kInt, ""},
       {"makespan", results::ColumnType::kInt, "cycles"},
       {"llc_requests", results::ColumnType::kInt, ""},
       {"engines_match", results::ColumnType::kInt, ""},
       {"transient_ok", results::ColumnType::kInt, ""}});

  std::vector<std::size_t> row_ordinals;
  bool all_completed = true;
  bool transient_bounds_hold = true;
  bool engines_identical = true;
  bool transitions_fired = true;
  std::size_t ordinal = 0;
  for (const GridConfig& config : configs) {
    for (const int way_bounce : way_bounces) {
      for (const int cadence : cadences) {
        for (const Clustering clustering : clusterings) {
          const std::size_t cell = ordinal++;
          if (ctx.sharded() && !mask[cell]) {
            continue;
          }
          core::ExperimentSetup setup =
              core::make_paper_setup(config.notation, config.cores);
          const llc::PartitionMap initial = setup.partitions();
          std::vector<llc::AppClass> classes;
          classes.reserve(static_cast<std::size_t>(config.cores));
          for (int c = 0; c < config.cores; ++c) {
            classes.push_back(class_of(clustering, c));
          }
          const Cycle epoch =
              Cycle(cadence) * setup.config.slot_width;
          llc::PartitionProgram program(initial);
          program.add_mode(llc::make_way_bounced_map(initial, way_bounce),
                           epoch, classes, "bounce");
          program.add_mode(initial, 2 * epoch, classes, "restore");
          setup.program = std::move(program);

          const auto traces =
              make_cell_traces(classes, accesses, seed + cell);
          ReplayRequest request;
          request.setup = &setup;
          request.workload.per_core = &traces;
          const RunMetrics kernel = replay(request).metrics;
          const RunMetrics legacy = replay_every_slot(request).metrics;

          const bool match = kernel == legacy;
          const bool observed_transient =
              kernel.observed_transient_wcl != kNoCycle;
          const bool transient_ok =
              !observed_transient ||
              kernel.observed_transient_wcl <=
                  kernel.transient_analytical_wcl;
          all_completed =
              all_completed && kernel.completed && legacy.completed;
          transient_bounds_hold = transient_bounds_hold && transient_ok;
          engines_identical = engines_identical && match;
          transitions_fired =
              transitions_fired && kernel.llc_stats.repartitions >= 1;
          series.add_row(
              {results::Value::of_text(config.notation),
               results::Value::of_int(config.cores),
               results::Value::of_int(way_bounce),
               results::Value::of_int(cadence),
               results::Value::of_text(to_string(clustering)),
               results::Value::of_int(kernel.analytical_wcl),
               results::Value::of_int(kernel.transient_analytical_wcl),
               results::Value::of_cycles(kernel.observed_wcl,
                                         kernel.completed),
               results::Value::of_cycles(kernel.observed_transient_wcl,
                                         observed_transient),
               results::Value::of_int(kernel.llc_stats.repartitions),
               results::Value::of_int(kernel.llc_stats.drain_writebacks),
               results::Value::of_int(kernel.llc_stats.drain_back_invals),
               results::Value::of_cycles(kernel.makespan, kernel.completed),
               results::Value::of_int(kernel.llc_requests),
               results::Value::of_int(match ? 1 : 0),
               results::Value::of_int(transient_ok ? 1 : 0)});
          row_ordinals.push_back(cell);
        }
      }
    }
  }

  res.add_claim("all repartition cells completed on both engines",
                all_completed);
  res.add_claim("every cell began at least one mode transition",
                transitions_fired);
  res.add_claim(
      "observed transient WCL <= analytical transient bound across the "
      "sweep grid",
      transient_bounds_hold);
  res.add_claim(
      "kernel and legacy replay bit-identical across every transition",
      engines_identical);

  if (ctx.sharded()) {
    std::vector<std::string> unit_ids;
    unit_ids.reserve(owned.size());
    for (const std::size_t o : owned) {
      unit_ids.push_back(plan.units()[o].id);
    }
    results::set_shard_provenance(res.meta(), plan.content_hash(),
                                  ctx.shard_index, ctx.shard_count,
                                  unit_ids);
    results::set_shard_rows(res.meta(), "repartition_cells", row_ordinals);
  }
  return bench::finish_bench(ctx, res);
}

}  // namespace

PSLLC_REGISTER_BENCH_SHARDED(repartition_sweep, run)
