// Differential test battery for the cross-process work-unit protocol:
// stable content-addressed unit IDs, round-robin shard assignment,
// manifest round trips, and — the central property — that partial result
// stores produced by sharded execution merge into an artifact
// bit-identical (JSON and CSV) to the single-process run_batch result,
// for the quick fig8 and demo-corpus grids, across shard counts
// {1, 2, 3, 7}. Also covers the refusal paths (duplicate / missing /
// foreign work units) and crash/resume: re-running one shard from the
// manifest after its partial store is lost.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "llc/partition.h"
#include "results/merge.h"
#include "results/result_store.h"
#include "sim/corpus.h"
#include "sim/experiment.h"
#include "sim/replay.h"
#include "sim/shard.h"
#include "sim/workload.h"

namespace psllc::sim {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const auto dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

std::vector<results::MergeUnit> merge_units(const ShardPlan& plan) {
  std::vector<results::MergeUnit> units;
  for (const WorkUnit& unit : plan.units()) {
    units.push_back({unit.id, unit.label(), unit.bench});
  }
  return units;
}

/// Byte-compares every file of `expected` against `actual`, both ways.
void expect_stores_identical(const fs::path& expected,
                             const fs::path& actual) {
  std::set<fs::path> expected_files;
  for (const auto& entry : fs::recursive_directory_iterator(expected)) {
    if (entry.is_regular_file()) {
      expected_files.insert(fs::relative(entry.path(), expected));
    }
  }
  ASSERT_FALSE(expected_files.empty());
  std::set<fs::path> actual_files;
  for (const auto& entry : fs::recursive_directory_iterator(actual)) {
    if (entry.is_regular_file()) {
      actual_files.insert(fs::relative(entry.path(), actual));
    }
  }
  EXPECT_EQ(expected_files, actual_files);
  for (const fs::path& rel : expected_files) {
    EXPECT_EQ(read_file(expected / rel), read_file(actual / rel))
        << "file " << rel << " differs";
  }
}

// --- demo-corpus grid --------------------------------------------------------
//
// The quick corpus_runner grid shape (the built-in demo corpus against
// the three 2-core configurations), sized down for test speed. The
// result-building below mirrors bench/corpus_runner.cc: same series
// schemas, same row order, same claims, same shard.* provenance — so the
// differential property proven here is the one the bench relies on.

constexpr int kCorpusAccesses = 120;

const std::vector<SweepConfig>& corpus_configs() {
  static const std::vector<SweepConfig> configs = {
      {"SS(32,2,2)", 2}, {"NSS(32,2,2)", 2}, {"P(8,2)", 2}};
  return configs;
}

ShardPlan corpus_plan(int shard_count) {
  ShardPlan plan("corpus_runner",
                 {{"profile", "quick"},
                  {"corpus", "builtin"},
                  {"replay", "mirrored"},
                  {"accesses", std::to_string(kCorpusAccesses)}},
                 shard_count);
  for (const CorpusSource& source : demo_corpus_sources(kCorpusAccesses)) {
    for (const SweepConfig& config : corpus_configs()) {
      plan.add_unit("corpus_runner",
                    source.name + "|" + config.notation + "|" +
                        std::to_string(config.active_cores));
    }
  }
  return plan;
}

/// Runs the grid (all cells, or only the cells `spec` owns under `plan`)
/// and builds the corpus_runner-shaped BenchResult, with shard.*
/// provenance when sharded.
results::BenchResult corpus_bench_result(const ShardPlan& plan,
                                         const ShardSpec* spec) {
  const std::vector<CorpusSource> corpus =
      demo_corpus_sources(kCorpusAccesses);
  const std::vector<SweepConfig>& configs = corpus_configs();
  const std::size_t num_configs = configs.size();
  SweepOptions options;
  options.threads = 2;

  std::vector<bool> mask;
  const std::vector<bool>* mask_ptr = nullptr;
  std::vector<std::size_t> owned;
  if (spec != nullptr) {
    owned = plan.owned_ordinals(*spec);
    mask.assign(corpus.size() * num_configs, false);
    for (const std::size_t ordinal : owned) {
      mask[ordinal] = true;
    }
    mask_ptr = &mask;
  }
  const CorpusResult result =
      run_corpus(corpus, configs, options, CorpusReplay::kMirrored,
                 mask_ptr);

  results::RunMeta meta;
  meta.bench = "corpus_runner";
  meta.title = "corpus grid (shard differential)";
  meta.reference = "tests/test_shard.cc";
  meta.set_param("profile", "quick");
  meta.set_param("corpus", "builtin");
  meta.set_param("entries", std::to_string(corpus.size()));
  meta.set_param("accesses", std::to_string(kCorpusAccesses));
  meta.set_param("replay", "mirrored");
  results::BenchResult res(std::move(meta));

  auto& traces_series = res.add_series(
      "corpus_traces",
      {{"trace", results::ColumnType::kText, ""},
       {"ops", results::ColumnType::kInt, ""},
       {"distinct_lines", results::ColumnType::kInt, ""}});
  std::vector<std::size_t> traces_ordinals;
  for (std::size_t e = 0; e < corpus.size(); ++e) {
    if (!result.entry_ran[e]) {
      continue;
    }
    const TraceStats& stats = result.entry_stats[e];
    traces_series.add_row({results::Value::of_text(result.names[e]),
                           results::Value::of_int(stats.ops),
                           results::Value::of_int(stats.distinct_lines)});
    traces_ordinals.push_back(e);
  }

  auto& wcl_series = res.add_series(
      "corpus_wcl",
      {{"trace", results::ColumnType::kText, ""},
       {"config", results::ColumnType::kText, ""},
       {"analytical_wcl", results::ColumnType::kInt, "cycles"},
       {"observed_wcl", results::ColumnType::kInt, "cycles"},
       {"makespan", results::ColumnType::kInt, "cycles"}});
  std::vector<std::size_t> wcl_ordinals;
  bool all_completed = true;
  bool bounds_hold = true;
  for (std::size_t e = 0; e < corpus.size(); ++e) {
    for (std::size_t c = 0; c < num_configs; ++c) {
      const CorpusCell& cell =
          result.cell(static_cast<int>(e), static_cast<int>(c));
      if (!cell.ran) {
        continue;
      }
      const RunMetrics& m = cell.metrics;
      all_completed = all_completed && m.completed;
      bounds_hold =
          bounds_hold && m.completed && m.observed_wcl <= m.analytical_wcl;
      wcl_series.add_row(
          {results::Value::of_text(cell.trace_name),
           results::Value::of_text(cell.config.notation),
           results::Value::of_int(m.analytical_wcl),
           results::Value::of_cycles(m.observed_wcl, m.completed),
           results::Value::of_cycles(m.makespan, m.completed)});
      wcl_ordinals.push_back(e * num_configs + c);
    }
  }
  res.add_claim("all corpus cells completed", all_completed);
  res.add_claim("bounds hold", bounds_hold);

  if (spec != nullptr) {
    std::vector<std::string> unit_ids;
    for (const std::size_t ordinal : owned) {
      unit_ids.push_back(plan.units()[ordinal].id);
    }
    results::set_shard_provenance(res.meta(), plan.content_hash(),
                                  spec->index, spec->count, unit_ids);
    results::set_shard_rows(res.meta(), "corpus_traces", traces_ordinals);
    results::set_shard_rows(res.meta(), "corpus_wcl", wcl_ordinals);
  }
  return res;
}

// --- quick fig8 grid ---------------------------------------------------------
//
// The quick fig8 panel shape: run_sweep over the CI address ranges, one
// work unit per range. A shard runs run_sweep restricted to its owned
// ranges (traces depend only on (seed, core, range), so its cells are
// bit-identical to the full run's) and tags each emitted row with the
// range's global ordinal.

const std::vector<std::int64_t>& fig8_ranges() {
  static const std::vector<std::int64_t> ranges = {1024, 8192, 65536};
  return ranges;
}

ShardPlan fig8_plan(int shard_count) {
  ShardPlan plan("fig8",
                 {{"profile", "quick"}, {"seed", "8"}, {"accesses", "800"}},
                 shard_count);
  for (const std::int64_t range : fig8_ranges()) {
    plan.add_unit("fig8a_2core_4k", std::to_string(range));
  }
  return plan;
}

results::BenchResult fig8_bench_result(const ShardPlan& plan,
                                       const ShardSpec* spec) {
  const std::vector<SweepConfig> configs = {
      {"SS(32,2,2)", 2}, {"NSS(32,2,2)", 2}, {"P(8,2)", 2}};
  SweepOptions options;
  options.accesses_per_core = 800;
  options.write_fraction = 0.25;
  options.seed = 8;
  options.threads = 2;

  std::vector<std::size_t> owned;
  if (spec == nullptr) {
    options.address_ranges = fig8_ranges();
    for (std::size_t r = 0; r < fig8_ranges().size(); ++r) {
      owned.push_back(r);
    }
  } else {
    owned = plan.owned_ordinals(*spec);
    options.address_ranges.clear();
    for (const std::size_t ordinal : owned) {
      options.address_ranges.push_back(fig8_ranges()[ordinal]);
    }
    PSLLC_ASSERT(!options.address_ranges.empty(),
                 "caller must skip shards owning no ranges");
  }
  const SweepResult result = run_sweep(configs, options);

  results::RunMeta meta;
  meta.bench = "fig8a_2core_4k";
  meta.title = "fig8 quick grid (shard differential)";
  meta.reference = "tests/test_shard.cc";
  meta.set_param("profile", "quick");
  meta.set_param("seed", "8");
  meta.set_param("accesses_per_core", "800");
  results::BenchResult res(std::move(meta));

  bool all_completed = true;
  for (const SweepCell& cell : result.cells) {
    all_completed = all_completed && cell.metrics.completed;
  }
  res.add_claim("all configurations completed", all_completed);
  res.add_series(exec_time_series(result));
  res.add_series(observed_wcl_series(result));

  if (spec != nullptr) {
    std::vector<std::string> unit_ids;
    for (const std::size_t ordinal : owned) {
      unit_ids.push_back(plan.units()[ordinal].id);
    }
    results::set_shard_provenance(res.meta(), plan.content_hash(),
                                  spec->index, spec->count, unit_ids);
    // Both series emit one row per range, in range order.
    results::set_shard_rows(res.meta(), "exec_time", owned);
    results::set_shard_rows(res.meta(), "observed_wcl", owned);
  }
  return res;
}

using BuildFn = results::BenchResult (*)(const ShardPlan&,
                                         const ShardSpec*);

/// The differential property: for every shard count, executing only the
/// owned cells per shard and merging the partial stores reproduces the
/// unsharded store byte for byte (result.json and every CSV).
void run_differential(const std::string& tag, BuildFn build,
                      ShardPlan (*make_plan)(int)) {
  const fs::path full_dir = fresh_dir("psllc_shard_full_" + tag);
  const ShardPlan serial_plan = make_plan(1);
  build(serial_plan, nullptr).write(full_dir);

  for (const int shard_count : {1, 2, 3, 7}) {
    const ShardPlan plan = make_plan(shard_count);
    const fs::path base =
        fresh_dir("psllc_shard_" + tag + "_n" + std::to_string(shard_count));
    std::vector<fs::path> roots;
    for (int index = 0; index < shard_count; ++index) {
      const ShardSpec spec{index, shard_count};
      if (plan.owned_ordinals(spec).empty()) {
        continue;  // more shards than units: nothing to run or store
      }
      const fs::path root = base / ("shard_" + std::to_string(index));
      build(plan, &spec).write(root);
      roots.push_back(root);
    }
    const fs::path merged = base / "merged";
    results::merge_partial_stores(merge_units(plan), plan.content_hash(),
                                  roots, merged);
    expect_stores_identical(full_dir, merged);
  }
}

// --- repartition grid --------------------------------------------------------
//
// A down-sized repartition_sweep grid: two-transition partition programs
// replayed on both engines per cell, including one cell whose horizon cuts
// the run *inside* the first drain window — the mid-drain case a crashed
// shard must reproduce exactly on resume.

constexpr int kRepartitionAccesses = 250;

struct RepartitionCellSpec {
  const char* notation;
  int way_bounce;
  Cycle max_cycles;
};

const std::vector<RepartitionCellSpec>& repartition_cells() {
  static const std::vector<RepartitionCellSpec> cells = {
      {"SS(32,2,2)", 1, 2'000'000'000},
      {"SS(32,2,2)", 2, 450},  // truncates mid-drain (epoch = 400 cycles)
      {"NSS(32,2,2)", 1, 2'000'000'000},
      {"P(8,2)", 2, 2'000'000'000},
  };
  return cells;
}

ShardPlan repartition_plan(int shard_count) {
  ShardPlan plan("repartition_sweep",
                 {{"profile", "quick"},
                  {"seed", "7"},
                  {"accesses", std::to_string(kRepartitionAccesses)}},
                 shard_count);
  for (const RepartitionCellSpec& cell : repartition_cells()) {
    plan.add_unit("repartition_sweep",
                  std::string(cell.notation) + "|b" +
                      std::to_string(cell.way_bounce) + "|h" +
                      std::to_string(cell.max_cycles));
  }
  return plan;
}

results::BenchResult repartition_bench_result(const ShardPlan& plan,
                                              const ShardSpec* spec) {
  const std::vector<RepartitionCellSpec>& cells = repartition_cells();
  std::vector<bool> mask(cells.size(), true);
  std::vector<std::size_t> owned;
  if (spec != nullptr) {
    mask.assign(cells.size(), false);
    owned = plan.owned_ordinals(*spec);
    for (const std::size_t ordinal : owned) {
      mask[ordinal] = true;
    }
  }

  results::RunMeta meta;
  meta.bench = "repartition_sweep";
  meta.title = "repartition grid (shard differential)";
  meta.reference = "tests/test_shard.cc";
  meta.set_param("profile", "quick");
  meta.set_param("seed", "7");
  meta.set_param("accesses", std::to_string(kRepartitionAccesses));
  results::BenchResult res(std::move(meta));

  auto& series = res.add_series(
      "repartition_cells",
      {{"config", results::ColumnType::kText, ""},
       {"way_bounce", results::ColumnType::kInt, ""},
       {"observed_transient_wcl", results::ColumnType::kInt, "cycles"},
       {"repartitions", results::ColumnType::kInt, ""},
       {"drain_writebacks", results::ColumnType::kInt, ""},
       {"engines_match", results::ColumnType::kInt, ""}});
  std::vector<std::size_t> row_ordinals;
  bool engines_identical = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!mask[i]) {
      continue;
    }
    const RepartitionCellSpec& cell = cells[i];
    core::ExperimentSetup setup = core::make_paper_setup(cell.notation, 2);
    const llc::PartitionMap initial = setup.partitions();
    const Cycle epoch = 8 * setup.config.slot_width;
    llc::PartitionProgram program(initial);
    program.add_mode(llc::make_way_bounced_map(initial, cell.way_bounce),
                     epoch, {}, "bounce");
    program.add_mode(initial, 2 * epoch, {}, "restore");
    setup.program = std::move(program);
    RandomWorkloadOptions workload;
    workload.range_bytes = 16384;
    workload.accesses = kRepartitionAccesses;
    workload.write_fraction = 0.5;
    const auto traces =
        make_disjoint_random_workload(2, workload, 7 + i);
    ReplayRequest request;
    request.setup = &setup;
    request.workload.per_core = &traces;
    request.options.max_cycles = cell.max_cycles;
    const RunMetrics kernel = replay(request).metrics;
    const RunMetrics legacy = replay_every_slot(request).metrics;
    const bool match = kernel == legacy;
    engines_identical = engines_identical && match;
    series.add_row(
        {results::Value::of_text(cell.notation),
         results::Value::of_int(cell.way_bounce),
         results::Value::of_cycles(kernel.observed_transient_wcl,
                                   kernel.observed_transient_wcl !=
                                       kNoCycle),
         results::Value::of_int(kernel.llc_stats.repartitions),
         results::Value::of_int(kernel.llc_stats.drain_writebacks),
         results::Value::of_int(match ? 1 : 0)});
    row_ordinals.push_back(i);
  }
  res.add_claim("kernel and legacy bit-identical across transitions",
                engines_identical);

  if (spec != nullptr) {
    std::vector<std::string> unit_ids;
    for (const std::size_t ordinal : owned) {
      unit_ids.push_back(plan.units()[ordinal].id);
    }
    results::set_shard_provenance(res.meta(), plan.content_hash(),
                                  spec->index, spec->count, unit_ids);
    results::set_shard_rows(res.meta(), "repartition_cells", row_ordinals);
  }
  return res;
}

// --- tests -------------------------------------------------------------------

TEST(ShardPlan, ContentAddressedIdsAreStableAndDistinct) {
  const ShardPlan a = corpus_plan(3);
  const ShardPlan b = corpus_plan(3);
  ASSERT_EQ(a.units().size(), b.units().size());
  std::set<std::string> ids;
  for (std::size_t i = 0; i < a.units().size(); ++i) {
    EXPECT_EQ(a.units()[i].id, b.units()[i].id) << "re-planning moved ids";
    EXPECT_EQ(a.units()[i].id.size(), 16u);
    EXPECT_TRUE(ids.insert(a.units()[i].id).second)
        << "duplicate id " << a.units()[i].id;
  }
  EXPECT_EQ(a.content_hash(), b.content_hash());

  // Different grid parameters address different content.
  ShardPlan other("corpus_runner", {{"profile", "full"}}, 3);
  other.add_unit("corpus_runner", "chase_hot|SS(32,2,2)");
  EXPECT_EQ(ids.count(other.units()[0].id), 0u);

  // The separator cannot be confused by embedded '|'.
  ShardPlan tricky("g", {}, 1);
  tricky.add_unit("a|b", "c");
  ShardPlan tricky2("g", {}, 1);
  tricky2.add_unit("a", "b|c");
  EXPECT_NE(tricky.units()[0].id, tricky2.units()[0].id);
}

TEST(ShardPlan, ManifestRoundTripsAndVerifies) {
  const ShardPlan plan = corpus_plan(3);
  const ShardPlan parsed = ShardPlan::from_json(plan.to_json());
  EXPECT_EQ(parsed.content_hash(), plan.content_hash());
  EXPECT_EQ(parsed.shard_count(), plan.shard_count());
  EXPECT_EQ(parsed.units().size(), plan.units().size());

  const fs::path dir = fresh_dir("psllc_shard_manifest");
  const fs::path path = dir / "manifest.json";
  plan.write(path);
  EXPECT_EQ(ShardPlan::load(path).content_hash(), plan.content_hash());
  // Idempotent re-verify; a different grid refuses.
  plan.write_or_verify(path);
  EXPECT_THROW(corpus_plan(2).write_or_verify(path), ConfigError);
  EXPECT_THROW(fig8_plan(3).write_or_verify(path), ConfigError);
}

TEST(ShardPlan, EveryCellOwnedByExactlyOneShardRandomized) {
  Rng rng(20260726);
  for (int trial = 0; trial < 50; ++trial) {
    const int entries = static_cast<int>(rng.next_in_range(1, 7));
    const int configs = static_cast<int>(rng.next_in_range(1, 5));
    const int shard_count = static_cast<int>(rng.next_in_range(1, 9));
    ShardPlan plan("random_grid",
                   {{"trial", std::to_string(trial)}}, shard_count);
    for (int e = 0; e < entries; ++e) {
      for (int c = 0; c < configs; ++c) {
        plan.add_unit("bench_" + std::to_string(e % 2),
                      std::to_string(e) + "|" + std::to_string(c));
      }
    }
    ShardPlan replanned("random_grid",
                        {{"trial", std::to_string(trial)}}, shard_count);
    for (int e = 0; e < entries; ++e) {
      for (int c = 0; c < configs; ++c) {
        replanned.add_unit("bench_" + std::to_string(e % 2),
                           std::to_string(e) + "|" + std::to_string(c));
      }
    }
    EXPECT_EQ(plan.content_hash(), replanned.content_hash());

    std::vector<int> owners(plan.units().size(), 0);
    for (int index = 0; index < shard_count; ++index) {
      for (const std::size_t ordinal :
           plan.owned_ordinals(ShardSpec{index, shard_count})) {
        ++owners[ordinal];
        EXPECT_EQ(plan.shard_of(ordinal), index);
      }
    }
    for (std::size_t ordinal = 0; ordinal < owners.size(); ++ordinal) {
      EXPECT_EQ(owners[ordinal], 1)
          << "unit " << ordinal << " owned by " << owners[ordinal]
          << " shards (count " << shard_count << ")";
    }
  }
}

TEST(ShardSpec, Validation) {
  EXPECT_THROW((ShardSpec{0, 0}.validate()), ConfigError);
  EXPECT_THROW((ShardSpec{3, 3}.validate()), ConfigError);
  EXPECT_THROW((ShardSpec{-1, 3}.validate()), ConfigError);
  EXPECT_NO_THROW((ShardSpec{2, 3}.validate()));
  EXPECT_THROW((void)corpus_plan(3).owned_ordinals(ShardSpec{0, 2}),
               ConfigError);
}

TEST(ShardDifferential, DemoCorpusGridMergesBitIdentical) {
  run_differential("corpus", corpus_bench_result, corpus_plan);
}

TEST(ShardDifferential, QuickFig8GridMergesBitIdentical) {
  run_differential("fig8", fig8_bench_result, fig8_plan);
}

TEST(ShardDifferential, RepartitionGridMergesBitIdentical) {
  run_differential("repartition", repartition_bench_result,
                   repartition_plan);
}

// Crash/resume through a mid-drain cell: the lost shard owns the cell whose
// horizon stops inside the first drain window, and its re-run from the
// manifest must reproduce that truncated transition state bit-identically.
TEST(ShardResume, MidDrainRepartitionShardRestoresTheMerge) {
  const int shard_count = 2;
  const fs::path base = fresh_dir("psllc_shard_repartition_resume");
  const fs::path manifest = base / "manifest.json";
  {
    const ShardPlan plan = repartition_plan(shard_count);
    plan.write(manifest);
    for (int index = 0; index < shard_count; ++index) {
      const ShardSpec spec{index, shard_count};
      repartition_bench_result(plan, &spec)
          .write(base / ("shard_" + std::to_string(index)));
    }
  }
  const fs::path golden = base / "golden";
  repartition_bench_result(repartition_plan(1), nullptr).write(golden);

  // Cell ordinal 1 is the mid-drain cell; under round-robin with two
  // shards it belongs to shard 1 — the one that "crashes".
  fs::remove_all(base / "shard_1");
  const ShardPlan resumed = ShardPlan::load(manifest);
  const ShardSpec spec{1, shard_count};
  repartition_bench_result(resumed, &spec).write(base / "shard_1");

  const fs::path merged = base / "merged";
  results::merge_partial_stores(
      merge_units(resumed), resumed.content_hash(),
      {base / "shard_0", base / "shard_1"}, merged);
  expect_stores_identical(golden, merged);
}

TEST(ShardMerge, RefusesDuplicateMissingAndForeignUnits) {
  const int shard_count = 3;
  const ShardPlan plan = corpus_plan(shard_count);
  const fs::path base = fresh_dir("psllc_shard_refusals");
  std::vector<fs::path> roots;
  for (int index = 0; index < shard_count; ++index) {
    const ShardSpec spec{index, shard_count};
    const fs::path root = base / ("shard_" + std::to_string(index));
    corpus_bench_result(plan, &spec).write(root);
    roots.push_back(root);
  }
  const std::vector<results::MergeUnit> units = merge_units(plan);
  const std::string hash = plan.content_hash();

  // Baseline: the honest merge goes through.
  EXPECT_NO_THROW(results::merge_partial_stores(units, hash, roots,
                                                base / "ok"));

  // Duplicate: the same partial store twice claims its units twice; the
  // refusal names the unit id.
  const std::string dup_id =
      plan.units()[plan.owned_ordinals(ShardSpec{0, shard_count})[0]].id;
  try {
    results::merge_partial_stores(
        units, hash, {roots[0], roots[0], roots[1], roots[2]},
        base / "dup");
    FAIL() << "duplicate units must refuse the merge";
  } catch (const results::MergeError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate work unit"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(dup_id), std::string::npos)
        << e.what();
  }

  // Missing: dropping a shard leaves units uncovered; the refusal names
  // one of them.
  const std::string missing_id =
      plan.units()[plan.owned_ordinals(ShardSpec{1, shard_count})[0]].id;
  try {
    results::merge_partial_stores(units, hash, {roots[0], roots[2]},
                                  base / "missing");
    FAIL() << "missing units must refuse the merge";
  } catch (const results::MergeError& e) {
    EXPECT_NE(std::string(e.what()).find("missing work unit"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(missing_id), std::string::npos)
        << e.what();
  }

  // Foreign manifest: partials produced under a different grid refuse.
  EXPECT_THROW(results::merge_partial_stores(units, "deadbeefdeadbeef",
                                             roots, base / "foreign"),
               results::MergeError);

  // A plain unsharded result has no provenance to validate.
  const fs::path plain = base / "plain";
  corpus_bench_result(corpus_plan(1), nullptr).write(plain);
  EXPECT_THROW(results::merge_partial_stores(units, hash, {plain},
                                             base / "unsharded"),
               results::MergeError);
}

TEST(ShardResume, ReRunningALostShardFromTheManifestRestoresTheMerge) {
  const int shard_count = 3;
  const fs::path base = fresh_dir("psllc_shard_resume");
  const fs::path manifest = base / "manifest.json";
  {
    const ShardPlan plan = corpus_plan(shard_count);
    plan.write(manifest);
    for (int index = 0; index < shard_count; ++index) {
      const ShardSpec spec{index, shard_count};
      corpus_bench_result(plan, &spec)
          .write(base / ("shard_" + std::to_string(index)));
    }
  }

  // Golden artifact: the unsharded run.
  const fs::path golden = base / "golden";
  corpus_bench_result(corpus_plan(1), nullptr).write(golden);

  // The crash: shard 1's partial store is lost entirely.
  fs::remove_all(base / "shard_1");

  // Resume from the on-disk manifest only (no in-memory state): the
  // re-planned unit IDs are stable, so re-running just shard 1 produces
  // the exact partial the merge needs.
  const ShardPlan resumed = ShardPlan::load(manifest);
  const ShardSpec spec{1, shard_count};
  corpus_bench_result(resumed, &spec).write(base / "shard_1");

  const fs::path merged = base / "merged";
  results::merge_partial_stores(
      merge_units(resumed), resumed.content_hash(),
      {base / "shard_0", base / "shard_1", base / "shard_2"}, merged);
  expect_stores_identical(golden, merged);
}

}  // namespace
}  // namespace psllc::sim
