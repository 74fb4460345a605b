// Corpus runner — trace-driven workloads at scale. Replays a corpus of
// recorded traces (a directory of .trace/.pslt files named by
// $PSLLC_CORPUS_DIR, or the deterministic built-in demo corpus) across a
// grid of partition configurations through sim::run_batch, and checks the
// paper's central claim per (trace, configuration) cell: the observed
// worst-case service latency never exceeds the analytical WCL bound
// (Wu & Patel, DAC'22, Theorems 4.7/4.8). Because the built-in corpus and
// the files `trace_convert --demo` emits are identical, running this bench
// against a converted on-disk corpus (the corpus-smoke CI job) must
// reproduce the committed golden baseline bit for bit — which gates the
// whole text->binary->mmap ingestion pipeline, not just the simulator.
//
// Traces stream per entry: each batch job loads its own trace, so the
// peak resident set is the batch concurrency, not the corpus size. With
// --shard-index/--shard-count the (trace x config) cells are enumerated
// as work units (sim/shard.h), only the owned cells execute, and the
// result store is a partial tagged with shard.* provenance that
// tools/results_merge reassembles bit-identically to an unsharded run.
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/assert.h"
#include "bench/registry.h"
#include "results/merge.h"
#include "sim/corpus.h"
#include "sim/shard.h"

namespace {

using namespace psllc;       // NOLINT
using namespace psllc::sim;  // NOLINT

constexpr char kTitle[] =
    "Corpus runner: recorded traces x partition configurations";
constexpr char kReference[] =
    "Wu & Patel, DAC'22, Section 5 methodology over recorded traces";

int run(bench::BenchContext& ctx) {
  bench::print_header(kTitle, kReference);

  const int accesses = ctx.pick(4000, 400);
  std::string corpus_source = "builtin";
  std::vector<CorpusSource> corpus;
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env; nothing calls setenv
  if (const char* dir = std::getenv("PSLLC_CORPUS_DIR");
      dir != nullptr && *dir != '\0') {
    corpus_source = dir;
    corpus = corpus_dir_sources(dir);
  } else {
    corpus = demo_corpus_sources(accesses);
  }

  // Mirrored replay (the default) needs shiftable addresses; recorded
  // traces touching the top of the address space select solo replay here.
  CorpusReplay replay = CorpusReplay::kMirrored;
  std::string replay_name = "mirrored";
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env; nothing calls setenv
  if (const char* env = std::getenv("PSLLC_CORPUS_REPLAY");
      env != nullptr && *env != '\0') {
    replay_name = env;
    if (replay_name == "solo") {
      replay = CorpusReplay::kSolo;
    } else {
      PSLLC_CONFIG_CHECK(replay_name == "mirrored",
                         "PSLLC_CORPUS_REPLAY must be 'mirrored' or "
                         "'solo', got '"
                             << replay_name << "'");
    }
  }

  SweepOptions options;
  options.threads = ctx.threads;
  std::vector<SweepConfig> configs = {
      {"SS(32,2,2)", 2}, {"NSS(32,2,2)", 2}, {"P(8,2)", 2}};
  if (!ctx.quick()) {
    configs.push_back({"SS(32,2,4)", 4});
    configs.push_back({"NSS(32,2,4)", 4});
    configs.push_back({"P(8,2)", 4});
  }

  const std::size_t num_entries = corpus.size();
  const std::size_t num_configs = configs.size();

  // Cell-level work-unit plan: unit ordinal e * C + c, the row order of
  // the corpus_wcl series, so merged rows land exactly where an unsharded
  // run emits them. The key carries the core count because the full grid
  // runs the same notation (P(8,2)) at both 2 and 4 cores.
  std::vector<std::pair<std::string, std::string>> grid_params = {
      {"profile", bench::to_string(ctx.profile)},
      {"corpus", corpus_source},
      {"replay", replay_name}};
  if (corpus_source == "builtin") {
    grid_params.emplace_back("accesses", std::to_string(accesses));
  }
  ShardPlan plan("corpus_runner", std::move(grid_params),
                 ctx.sharded() ? ctx.shard_count : 1);
  for (const CorpusSource& source : corpus) {
    for (const SweepConfig& config : configs) {
      plan.add_unit("corpus_runner",
                    source.name + "|" + config.notation + "|" +
                        std::to_string(config.active_cores));
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
    std::printf("[shard] %d/%d: %zu of %zu cells\n", ctx.shard_index,
                ctx.shard_count, owned.size(), plan.units().size());
    if (owned.empty()) {
      // More shards than cells: this shard owes the merge nothing, so
      // (like run_all) it succeeds without emitting a partial store.
      std::printf("[shard] nothing to run on this shard\n");
      return 0;
    }
    mask.assign(num_entries * num_configs, false);
    for (const std::size_t ordinal : owned) {
      mask[ordinal] = true;
    }
    mask_ptr = &mask;
  }

  const CorpusResult result =
      run_corpus(corpus, configs, options, replay, mask_ptr);

  results::BenchResult res(
      ctx.make_meta("corpus_runner", kTitle, kReference));
  res.meta().set_param("corpus", corpus_source);
  res.meta().set_param("entries", std::to_string(corpus.size()));
  // The accesses knob sizes only the built-in demo corpus; directory
  // traces define their own sizes (recorded in corpus_traces).
  if (corpus_source == "builtin") {
    res.meta().set_param("accesses", std::to_string(accesses));
  }
  res.meta().set_param("replay", replay_name);

  auto& traces_series = res.add_series(
      "corpus_traces",
      {{"trace", results::ColumnType::kText, ""},
       {"ops", results::ColumnType::kInt, ""},
       {"reads", results::ColumnType::kInt, ""},
       {"writes", results::ColumnType::kInt, ""},
       {"ifetches", results::ColumnType::kInt, ""},
       {"distinct_lines", results::ColumnType::kInt, ""}});
  std::vector<std::size_t> traces_ordinals;
  for (std::size_t e = 0; e < num_entries; ++e) {
    if (!result.entry_ran[e]) {
      continue;
    }
    const TraceStats& stats = result.entry_stats[e];
    traces_series.add_row({results::Value::of_text(result.names[e]),
                           results::Value::of_int(stats.ops),
                           results::Value::of_int(stats.reads),
                           results::Value::of_int(stats.writes),
                           results::Value::of_int(stats.ifetches),
                           results::Value::of_int(stats.distinct_lines)});
    traces_ordinals.push_back(e);
  }

  auto& wcl_series = res.add_series(
      "corpus_wcl",
      {{"trace", results::ColumnType::kText, ""},
       {"config", results::ColumnType::kText, ""},
       {"cores", results::ColumnType::kInt, ""},
       {"analytical_wcl", results::ColumnType::kInt, "cycles"},
       {"observed_wcl", results::ColumnType::kInt, "cycles"},
       {"makespan", results::ColumnType::kInt, "cycles"},
       {"llc_requests", results::ColumnType::kInt, ""},
       {"bound_ok", results::ColumnType::kInt, ""}});

  std::vector<std::size_t> wcl_ordinals;
  bool all_completed = true;
  bool bounds_hold = true;
  for (int e = 0; e < static_cast<int>(result.names.size()); ++e) {
    for (int c = 0; c < static_cast<int>(result.configs.size()); ++c) {
      const CorpusCell& cell = result.cell(e, c);
      if (!cell.ran) {
        continue;
      }
      const RunMetrics& m = cell.metrics;
      // The per-cell claim check: a diffable column, aggregated below into
      // the bench-level claims.
      const bool bound_ok = m.completed && m.observed_wcl <= m.analytical_wcl;
      all_completed = all_completed && m.completed;
      bounds_hold = bounds_hold && bound_ok;
      wcl_series.add_row(
          {results::Value::of_text(cell.trace_name),
           results::Value::of_text(cell.config.notation),
           results::Value::of_int(cell.config.active_cores),
           results::Value::of_int(m.analytical_wcl),
           results::Value::of_cycles(m.observed_wcl, m.completed),
           results::Value::of_cycles(m.makespan, m.completed),
           results::Value::of_int(m.llc_requests),
           results::Value::of_int(bound_ok ? 1 : 0)});
      wcl_ordinals.push_back(static_cast<std::size_t>(e) * num_configs +
                             static_cast<std::size_t>(c));
    }
  }

  res.add_claim("all corpus cells completed", all_completed);
  res.add_claim("observed WCL <= analytical bound for every trace/config",
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
    results::set_shard_rows(res.meta(), "corpus_traces", traces_ordinals);
    results::set_shard_rows(res.meta(), "corpus_wcl", wcl_ordinals);
  }
  return bench::finish_bench(ctx, res);
}

}  // namespace

PSLLC_REGISTER_BENCH_SHARDED(corpus_runner, run)
