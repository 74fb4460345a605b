// Adversarial corpus — the WCL bound under active attack. Runs the
// adversarial trace search (sim/adversary.h): every attack pattern
// (conflict strides, writeback storms, slot-aligned bursts, repartition-
// window bursts against two-mode partition programs) against every
// partition configuration, hill-climbing on the lowest-slack cells, and
// gates the paper's central claim in its strongest form: the observed
// worst-case latency stays at or below the analytical bound (Wu & Patel,
// DAC'22, Theorems 4.7/4.8 + the private bound; the transient bound for
// dynamic-program cells) over the *full searched grid* — workloads
// constructed to maximize conflict, writeback and slot-alignment pressure,
// not just the benign figure sweeps.
//
// The search is track-sharded: one (pattern x config) track per work unit
// (sim/shard.h), each track an independent serial hill-climb with a fixed
// cell count, so global row ordinals are computable per shard and
// tools/results_merge reassembles partial stores bit-identical to an
// unsharded run.
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "results/merge.h"
#include "sim/adversary.h"
#include "sim/shard.h"

namespace {

using namespace psllc;       // NOLINT
using namespace psllc::sim;  // NOLINT

constexpr char kTitle[] =
    "Adversarial corpus: attack patterns x partition configurations";
constexpr char kReference[] =
    "Wu & Patel, DAC'22, Theorems 4.7/4.8 under adversarial workloads";

int run(bench::BenchContext& ctx) {
  bench::print_header(kTitle, kReference);

  AdversaryOptions options;
  options.seed = 42;
  options.ops_per_core = ctx.pick(3000, 300);
  options.rounds = ctx.pick(2, 1);
  options.survivors = ctx.pick(2, 1);
  options.mutants = ctx.pick(3, 2);
  options.threads = ctx.threads;
  options.configs = {{"SS(32,2,2)", 2}, {"NSS(32,2,2)", 2}, {"P(8,2)", 2}};
  if (!ctx.quick()) {
    options.configs.push_back({"SS(32,2,4)", 4});
    options.configs.push_back({"NSS(32,2,4)", 4});
    options.configs.push_back({"P(8,2)", 4});
  }

  const std::size_t num_tracks =
      options.kinds.size() * options.configs.size();
  const auto cells_per_track =
      static_cast<std::size_t>(options.cells_per_track());

  // Track-level work-unit plan: unit ordinal k * C + c is the row-group
  // order of both series (cells_per_track rows in adversary_cells, one row
  // in adversary_tracks), so merged rows land exactly where an unsharded
  // run emits them.
  std::vector<std::pair<std::string, std::string>> grid_params = {
      {"profile", bench::to_string(ctx.profile)},
      {"seed", std::to_string(options.seed)},
      {"ops", std::to_string(options.ops_per_core)},
      {"rounds", std::to_string(options.rounds)},
      {"survivors", std::to_string(options.survivors)},
      {"mutants", std::to_string(options.mutants)}};
  ShardPlan plan("adversarial_corpus", std::move(grid_params),
                 ctx.sharded() ? ctx.shard_count : 1);
  for (const AttackKind kind : options.kinds) {
    for (const SweepConfig& config : options.configs) {
      plan.add_unit("adversarial_corpus", track_key(kind, config));
    }
  }

  std::vector<bool> mask;
  const std::vector<bool>* mask_ptr = nullptr;
  std::vector<std::size_t> owned;
  if (ctx.sharded()) {
    const ShardSpec spec{ctx.shard_index, ctx.shard_count};
    if (!ctx.manifest_path.empty()) {
      plan.write_or_verify(ctx.manifest_path);
    }
    owned = plan.owned_ordinals(spec);
    std::printf("[shard] %d/%d: %zu of %zu tracks\n", ctx.shard_index,
                ctx.shard_count, owned.size(), plan.units().size());
    if (owned.empty()) {
      std::printf("[shard] nothing to run on this shard\n");
      return 0;
    }
    mask.assign(num_tracks, false);
    for (const std::size_t ordinal : owned) {
      mask[ordinal] = true;
    }
    mask_ptr = &mask;
  }

  const AdversaryResult result = run_adversary_search(options, mask_ptr);

  results::BenchResult res(
      ctx.make_meta("adversarial_corpus", kTitle, kReference));
  res.meta().set_param("seed", std::to_string(options.seed));
  res.meta().set_param("ops", std::to_string(options.ops_per_core));
  res.meta().set_param("rounds", std::to_string(options.rounds));
  res.meta().set_param("survivors", std::to_string(options.survivors));
  res.meta().set_param("mutants", std::to_string(options.mutants));
  res.meta().set_param("near_miss_slack",
                       std::to_string(options.near_miss_slack));

  auto& cells_series = res.add_series(
      "adversary_cells",
      {{"pattern", results::ColumnType::kText, ""},
       {"config", results::ColumnType::kText, ""},
       {"cores", results::ColumnType::kInt, ""},
       {"cell", results::ColumnType::kText, ""},
       {"round", results::ColumnType::kInt, ""},
       {"backend", results::ColumnType::kText, ""},
       {"analytical_wcl", results::ColumnType::kInt, "cycles"},
       {"observed_wcl", results::ColumnType::kInt, "cycles"},
       {"makespan", results::ColumnType::kInt, "cycles"},
       {"slack", results::ColumnType::kReal, ""},
       {"llc_requests", results::ColumnType::kInt, ""},
       {"bound_ok", results::ColumnType::kInt, ""}});
  auto& tracks_series = res.add_series(
      "adversary_tracks",
      {{"pattern", results::ColumnType::kText, ""},
       {"config", results::ColumnType::kText, ""},
       {"cores", results::ColumnType::kInt, ""},
       {"cells", results::ColumnType::kInt, ""},
       {"min_slack", results::ColumnType::kReal, ""},
       {"near_misses", results::ColumnType::kInt, ""},
       {"violations", results::ColumnType::kInt, ""}});

  std::vector<std::size_t> cell_ordinals;
  std::vector<std::size_t> track_ordinals;
  bool all_completed = true;
  bool bounds_hold = true;
  for (std::size_t t = 0; t < result.tracks.size(); ++t) {
    const AdversaryTrack& track = result.tracks[t];
    if (!track.ran) {
      continue;
    }
    for (std::size_t i = 0; i < track.cells.size(); ++i) {
      const AdversaryCell& cell = track.cells[i];
      const RunMetrics& m = cell.metrics;
      const bool bound_ok = m.completed && !cell.violation;
      all_completed = all_completed && m.completed;
      bounds_hold = bounds_hold && bound_ok;
      cells_series.add_row(
          {results::Value::of_text(to_string(track.kind)),
           results::Value::of_text(track.config.notation),
           results::Value::of_int(track.config.active_cores),
           results::Value::of_text(cell.spec.id()),
           results::Value::of_int(cell.round),
           results::Value::of_text(mem::to_string(cell.spec.backend)),
           results::Value::of_int(m.analytical_wcl),
           results::Value::of_cycles(m.observed_wcl, m.completed),
           results::Value::of_cycles(m.makespan, m.completed),
           results::Value::of_real(cell.slack),
           results::Value::of_int(m.llc_requests),
           results::Value::of_int(bound_ok ? 1 : 0)});
      cell_ordinals.push_back(t * cells_per_track + i);
    }
    tracks_series.add_row(
        {results::Value::of_text(to_string(track.kind)),
         results::Value::of_text(track.config.notation),
         results::Value::of_int(track.config.active_cores),
         results::Value::of_int(static_cast<std::int64_t>(
             track.cells.size())),
         results::Value::of_real(track.min_slack),
         results::Value::of_int(track.near_misses),
         results::Value::of_int(track.violations)});
    track_ordinals.push_back(t);
  }

  res.add_claim("all adversarial cells completed", all_completed);
  res.add_claim(
      "observed WCL <= analytical bound across the searched adversarial "
      "grid",
      bounds_hold);

  if (ctx.sharded()) {
    std::vector<std::string> unit_ids;
    unit_ids.reserve(owned.size());
    for (const std::size_t ordinal : owned) {
      unit_ids.push_back(plan.units()[ordinal].id);
    }
    results::set_shard_provenance(res.meta(), plan.content_hash(),
                                  ctx.shard_index, ctx.shard_count,
                                  unit_ids);
    results::set_shard_rows(res.meta(), "adversary_cells", cell_ordinals);
    results::set_shard_rows(res.meta(), "adversary_tracks", track_ordinals);
  }
  return bench::finish_bench(ctx, res);
}

}  // namespace

PSLLC_REGISTER_BENCH_SHARDED(adversarial_corpus, run)
