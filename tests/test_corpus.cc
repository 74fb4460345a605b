// Tests for the trace-corpus runner: the built-in demo corpus, directory
// loading across both trace formats, the run_corpus grid (bounds,
// determinism across thread counts, replay modes) and its error paths.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/assert.h"
#include "sim/corpus.h"
#include "sim/trace_io.h"

namespace psllc::sim {
namespace {

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void expect_corpora_equal(const std::vector<CorpusEntry>& a,
                          const std::vector<CorpusEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a[e].name, b[e].name);
    ASSERT_EQ(a[e].trace.size(), b[e].trace.size()) << a[e].name;
    for (std::size_t i = 0; i < a[e].trace.size(); ++i) {
      EXPECT_EQ(a[e].trace[i].addr, b[e].trace[i].addr)
          << a[e].name << " op " << i;
      EXPECT_EQ(a[e].trace[i].type, b[e].trace[i].type)
          << a[e].name << " op " << i;
      EXPECT_EQ(a[e].trace[i].gap, b[e].trace[i].gap)
          << a[e].name << " op " << i;
    }
  }
}

TEST(DemoCorpus, DeterministicSortedAndSized) {
  const auto a = make_demo_corpus(200);
  const auto b = make_demo_corpus(200);
  expect_corpora_equal(a, b);
  ASSERT_GE(a.size(), 3u);
  for (std::size_t e = 1; e < a.size(); ++e) {
    EXPECT_LT(a[e - 1].name, a[e].name) << "corpus must be name-sorted";
  }
  for (const CorpusEntry& entry : a) {
    EXPECT_GE(entry.trace.size(), 200u) << entry.name;
  }
  EXPECT_THROW((void)make_demo_corpus(0), ConfigError);
}

TEST(Corpus, DirLoadReproducesBuiltinAcrossBothFormats) {
  const auto builtin = make_demo_corpus(50);
  // Text corpus.
  const auto text_dir = fresh_dir("psllc_corpus_text");
  for (const CorpusEntry& entry : builtin) {
    write_trace_file((text_dir / (entry.name + ".trace")).string(),
                     entry.trace);
  }
  expect_corpora_equal(load_corpus_dir(text_dir), builtin);
  // Binary corpus.
  const auto bin_dir = fresh_dir("psllc_corpus_bin");
  for (const CorpusEntry& entry : builtin) {
    write_trace_file((bin_dir / (entry.name + ".pslt")).string(),
                     entry.trace);
  }
  expect_corpora_equal(load_corpus_dir(bin_dir), builtin);
  // Mixed corpus: loader dispatches per file.
  const auto mixed_dir = fresh_dir("psllc_corpus_mixed");
  for (std::size_t e = 0; e < builtin.size(); ++e) {
    const char* ext = e % 2 == 0 ? ".trace" : ".pslt";
    write_trace_file((mixed_dir / (builtin[e].name + ext)).string(),
                     builtin[e].trace);
  }
  expect_corpora_equal(load_corpus_dir(mixed_dir), builtin);
}

TEST(Corpus, DirLoadErrorPaths) {
  EXPECT_THROW((void)load_corpus_dir(fresh_dir("psllc_corpus_empty")),
               ConfigError);
  EXPECT_THROW(
      (void)load_corpus_dir(std::filesystem::path(::testing::TempDir()) /
                            "psllc_corpus_missing"),
      std::runtime_error);
  // Two formats sharing a stem is ambiguous.
  const auto dup_dir = fresh_dir("psllc_corpus_dup");
  const core::Trace trace{core::MemOp{0x40, AccessType::kRead, 0}};
  write_trace_file((dup_dir / "a.trace").string(), trace);
  write_trace_file((dup_dir / "a.pslt").string(), trace);
  EXPECT_THROW((void)load_corpus_dir(dup_dir), ConfigError);
  // Unrelated files are ignored; trace extensions match case-insensitively.
  const auto noise_dir = fresh_dir("psllc_corpus_noise");
  write_trace_file((noise_dir / "ok.trace").string(), trace);
  write_trace_file((noise_dir / "UPPER.TRACE").string(), trace);
  std::ofstream(noise_dir / "README.md") << "not a trace\n";
  EXPECT_EQ(load_corpus_dir(noise_dir).size(), 2u);
}

TEST(Corpus, RunGridHoldsBoundsAndIsThreadCountInvariant) {
  const auto corpus = make_demo_corpus(80);
  const std::vector<SweepConfig> configs = {{"SS(32,2,2)", 2},
                                            {"P(8,2)", 2}};
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;

  const CorpusResult a = run_corpus(corpus, configs, serial);
  const CorpusResult b = run_corpus(corpus, configs, parallel);

  ASSERT_EQ(a.cells.size(), corpus.size() * configs.size());
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const RunMetrics& ma = a.cells[i].metrics;
    const RunMetrics& mb = b.cells[i].metrics;
    EXPECT_EQ(a.cells[i].trace_name, b.cells[i].trace_name) << "cell " << i;
    EXPECT_TRUE(ma.completed) << "cell " << i;
    EXPECT_LE(ma.observed_wcl, ma.analytical_wcl) << "cell " << i;
    EXPECT_GT(ma.llc_requests, 0) << "cell " << i;
    EXPECT_EQ(ma.makespan, mb.makespan) << "cell " << i;
    EXPECT_EQ(ma.observed_wcl, mb.observed_wcl) << "cell " << i;
    EXPECT_EQ(ma.llc_requests, mb.llc_requests) << "cell " << i;
    EXPECT_EQ(ma.per_core_finish, mb.per_core_finish) << "cell " << i;
  }
  // Mirrored replay engages every active core.
  const RunMetrics& first = a.cell(0, 0).metrics;
  ASSERT_EQ(first.per_core_finish.size(), 2u);
  EXPECT_NE(first.per_core_finish[1], kNoCycle);
}

TEST(Corpus, SoloReplayLeavesOtherCoresIdle) {
  const std::vector<CorpusEntry> corpus = {
      {"only", make_demo_corpus(60).front().trace}};
  const std::vector<SweepConfig> configs = {{"SS(32,2,2)", 2}};
  SweepOptions options;
  options.threads = 1;
  const CorpusResult result =
      run_corpus(corpus, configs, options, CorpusReplay::kSolo);
  const RunMetrics& m = result.cell(0, 0).metrics;
  EXPECT_TRUE(m.completed);
  EXPECT_LE(m.observed_wcl, m.analytical_wcl);
  EXPECT_GT(m.llc_requests, 0);
}

TEST(Corpus, RunRejectsBadInput) {
  const auto corpus = make_demo_corpus(10);
  const std::vector<SweepConfig> configs = {{"SS(32,2,2)", 2}};
  SweepOptions options;
  options.threads = 1;
  EXPECT_THROW((void)run_corpus(std::vector<CorpusEntry>{}, configs,
                                options),
               ConfigError);
  EXPECT_THROW((void)run_corpus(corpus, {}, options), ConfigError);
  std::vector<CorpusEntry> dup = {corpus.front(), corpus.front()};
  EXPECT_THROW((void)run_corpus(dup, configs, options), ConfigError);
  // A bad notation fails the cell; run_corpus surfaces it.
  const std::vector<SweepConfig> bogus = {{"bogus-notation", 2}};
  EXPECT_THROW((void)run_corpus(corpus, bogus, options), ConfigError);
}

TEST(Corpus, StreamingSourcesMatchMaterializedEntries) {
  const auto corpus = make_demo_corpus(80);
  std::vector<CorpusSource> sources = demo_corpus_sources(80);
  const std::vector<SweepConfig> configs = {{"SS(32,2,2)", 2},
                                            {"P(8,2)", 2}};
  SweepOptions options;
  options.threads = 2;
  const CorpusResult via_entries = run_corpus(corpus, configs, options);
  const CorpusResult via_sources = run_corpus(sources, configs, options);
  ASSERT_EQ(via_entries.cells.size(), via_sources.cells.size());
  for (std::size_t i = 0; i < via_entries.cells.size(); ++i) {
    EXPECT_EQ(via_entries.cells[i].trace_name,
              via_sources.cells[i].trace_name);
    EXPECT_TRUE(via_sources.cells[i].ran);
    EXPECT_EQ(via_entries.cells[i].metrics.makespan,
              via_sources.cells[i].metrics.makespan) << "cell " << i;
    EXPECT_EQ(via_entries.cells[i].metrics.observed_wcl,
              via_sources.cells[i].metrics.observed_wcl) << "cell " << i;
  }
  // Per-entry stats come back from the run, computed while the trace was
  // resident.
  ASSERT_EQ(via_sources.entry_stats.size(), corpus.size());
  for (std::size_t e = 0; e < corpus.size(); ++e) {
    EXPECT_TRUE(via_sources.entry_ran[e]);
    const TraceStats expected = compute_trace_stats(corpus[e].trace);
    EXPECT_EQ(via_sources.entry_stats[e].ops, expected.ops);
    EXPECT_EQ(via_sources.entry_stats[e].distinct_lines,
              expected.distinct_lines);
  }
}

TEST(Corpus, PerEntryStreamingBoundsPeakEntriesResident) {
  // 4 entries of 2 cells each. A serial run must only ever hold ONE entry
  // resident (the whole point of per-entry streaming: the corpus is no
  // longer materialized up front), and a 2-thread run at most two.
  const std::vector<SweepConfig> configs = {{"SS(32,2,2)", 2},
                                            {"P(8,2)", 2}};
  SweepOptions serial;
  serial.threads = 1;
  const CorpusResult one =
      run_corpus(demo_corpus_sources(60), configs, serial);
  EXPECT_EQ(one.peak_entries_resident, 1);

  SweepOptions two;
  two.threads = 2;
  const CorpusResult both =
      run_corpus(demo_corpus_sources(60), configs, two);
  EXPECT_GE(both.peak_entries_resident, 1);
  EXPECT_LE(both.peak_entries_resident, 2);
}

TEST(Corpus, CellMaskRunsOnlyOwnedCellsAndNeverLoadsUnownedEntries) {
  const auto corpus = make_demo_corpus(60);
  const std::vector<SweepConfig> configs = {{"SS(32,2,2)", 2},
                                            {"P(8,2)", 2}};
  // Instrumented sources: count how often each entry is loaded.
  auto load_counts =
      std::make_shared<std::vector<std::atomic<int>>>(corpus.size());
  std::vector<CorpusSource> sources;
  for (std::size_t e = 0; e < corpus.size(); ++e) {
    sources.push_back({corpus[e].name, [&corpus, load_counts, e] {
                         ++(*load_counts)[e];
                         return corpus[e].trace;
                       }});
  }
  // Own only entry 0 (both configs) and entry 2 (first config).
  std::vector<bool> mask(corpus.size() * configs.size(), false);
  mask[0] = true;
  mask[1] = true;
  mask[2 * configs.size()] = true;

  SweepOptions options;
  options.threads = 2;
  const CorpusResult partial =
      run_corpus(sources, configs, options, CorpusReplay::kMirrored, &mask);
  const CorpusResult full = run_corpus(corpus, configs, options);

  for (std::size_t i = 0; i < mask.size(); ++i) {
    EXPECT_EQ(partial.cells[i].ran, static_cast<bool>(mask[i]))
        << "cell " << i;
    EXPECT_EQ(partial.cells[i].trace_name, full.cells[i].trace_name);
    if (mask[i]) {
      // Owned cells are bit-identical to the full run.
      EXPECT_EQ(partial.cells[i].metrics.makespan,
                full.cells[i].metrics.makespan) << "cell " << i;
      EXPECT_EQ(partial.cells[i].metrics.observed_wcl,
                full.cells[i].metrics.observed_wcl) << "cell " << i;
      EXPECT_EQ(partial.cells[i].metrics.per_core_finish,
                full.cells[i].metrics.per_core_finish) << "cell " << i;
    } else {
      EXPECT_FALSE(partial.cells[i].metrics.completed);
    }
  }
  EXPECT_TRUE(partial.entry_ran[0]);
  EXPECT_FALSE(partial.entry_ran[1]);
  EXPECT_TRUE(partial.entry_ran[2]);
  EXPECT_FALSE(partial.entry_ran[3]);
  EXPECT_EQ(partial.entry_stats[0].ops,
            compute_trace_stats(corpus[0].trace).ops);
  for (std::size_t e = 0; e < corpus.size(); ++e) {
    if (partial.entry_ran[e]) {
      EXPECT_GE((*load_counts)[e].load(), 1) << "entry " << e;
    } else {
      EXPECT_EQ((*load_counts)[e].load(), 0)
          << "masked-out entry " << e << " was loaded";
    }
  }

  // Bad masks: wrong arity, or a mask excluding the whole grid.
  std::vector<bool> short_mask(3, true);
  EXPECT_THROW((void)run_corpus(sources, configs, options,
                                CorpusReplay::kMirrored, &short_mask),
               ConfigError);
  std::vector<bool> empty_mask(corpus.size() * configs.size(), false);
  EXPECT_THROW((void)run_corpus(sources, configs, options,
                                CorpusReplay::kMirrored, &empty_mask),
               ConfigError);
}

/// Demo sources that count their loads, and an optional failure: the
/// entry named `throwing` throws from its loader.
struct CountingSources {
  std::vector<CorpusEntry> corpus = make_demo_corpus(60);
  std::shared_ptr<std::vector<std::atomic<int>>> loads =
      std::make_shared<std::vector<std::atomic<int>>>(corpus.size());

  [[nodiscard]] std::vector<CorpusSource> sources(
      const std::string& throwing = "") const {
    std::vector<CorpusSource> out;
    for (std::size_t e = 0; e < corpus.size(); ++e) {
      out.push_back({corpus[e].name, [this, e, throwing] {
                       ++(*loads)[e];
                       if (corpus[e].name == throwing) {
                         throw std::runtime_error("disk on fire");
                       }
                       return corpus[e].trace;
                     }});
    }
    return out;
  }
  void reset() const {
    for (std::atomic<int>& n : *loads) {
      n = 0;
    }
  }
};

/// Two core counts, so the old (entry, core count) jobs loaded each entry
/// twice.
const std::vector<SweepConfig>& mixed_core_configs() {
  static const std::vector<SweepConfig> configs = {
      {"P(8,2)", 2}, {"P(32,4)", 4}, {"SS(32,2,2)", 2}, {"SS(32,16,4)", 4}};
  return configs;
}

TEST(CorpusScheduler, LoadsEachOwnedEntryExactlyOncePerRun) {
  const CountingSources counting;
  const std::vector<SweepConfig>& configs = mixed_core_configs();
  const std::size_t entries = counting.corpus.size();
  // Own every config of entry 0, one config of entry 2, nothing of 1 or 3.
  std::vector<bool> mask(entries * configs.size(), false);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    mask[c] = true;
  }
  mask[2 * configs.size() + 1] = true;
  for (const int threads : {1, 2, 4}) {
    for (const bool masked : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads " << threads << ", masked " << masked);
      counting.reset();
      SweepOptions options;
      options.threads = threads;
      const CorpusResult result =
          run_corpus(counting.sources(), configs, options,
                     CorpusReplay::kMirrored, masked ? &mask : nullptr);
      for (std::size_t e = 0; e < entries; ++e) {
        const bool owned = !masked || e == 0 || e == 2;
        EXPECT_EQ((*counting.loads)[e].load(), owned ? 1 : 0)
            << "entry " << e;
        EXPECT_EQ(result.entry_ran[e], owned) << "entry " << e;
      }
      EXPECT_GE(result.peak_entries_resident, 1);
      EXPECT_LE(result.peak_entries_resident, threads);
    }
  }
}

TEST(CorpusScheduler, CellsAreIdenticalAcrossThreadCountsInBothModes) {
  const auto corpus = make_demo_corpus(80);
  const std::vector<SweepConfig>& configs = mixed_core_configs();
  for (const CorpusReplay mode : {CorpusReplay::kMirrored,
                                  CorpusReplay::kSolo}) {
    SweepOptions serial;
    serial.threads = 1;
    const CorpusResult reference = run_corpus(corpus, configs, serial, mode);
    for (const int threads : {2, 4}) {
      SweepOptions options;
      options.threads = threads;
      const CorpusResult result = run_corpus(corpus, configs, options, mode);
      ASSERT_EQ(result.cells.size(), reference.cells.size());
      for (std::size_t i = 0; i < result.cells.size(); ++i) {
        EXPECT_TRUE(result.cells[i].ran) << "cell " << i;
        EXPECT_TRUE(result.cells[i].metrics == reference.cells[i].metrics)
            << "threads " << threads << ", cell " << i;
      }
      EXPECT_LE(result.peak_entries_resident, threads);
    }
  }
}

TEST(CorpusScheduler, FailuresNameTheEntryAndStopThePool) {
  const CountingSources counting;
  const std::vector<SweepConfig>& configs = mixed_core_configs();
  SweepOptions options;
  options.threads = 4;
  const auto expect_failure_names = [&](const auto& run,
                                        const std::string& entry,
                                        const std::string& what) {
    try {
      (void)run();
      ADD_FAILURE() << "run succeeded";
    } catch (const ConfigError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("corpus run failed:\n" + entry + ": "),
                std::string::npos)
          << message;
      EXPECT_NE(message.find(what), std::string::npos) << message;
    }
  };
  const std::string bad = counting.corpus[1].name;
  expect_failure_names(
      [&] { return run_corpus(counting.sources(bad), configs, options); },
      bad, "disk on fire");

  // Mirrored replay cannot shift a trace whose addresses reach 2^63.
  std::vector<CorpusEntry> corpus = counting.corpus;
  corpus[2].trace.back().addr = Addr{1} << 63;
  expect_failure_names([&] { return run_corpus(corpus, configs, options); },
                       corpus[2].name, "use solo replay");
}

TEST(Corpus, MirroredReplayRejectsUnshiftableAddresses) {
  const std::vector<CorpusEntry> corpus = {
      {"wide", core::Trace{core::MemOp{Addr{1} << 63, AccessType::kRead,
                                       0}}}};
  const std::vector<SweepConfig> configs = {{"SS(32,2,2)", 2}};
  SweepOptions options;
  options.threads = 1;
  EXPECT_THROW((void)run_corpus(corpus, configs, options), ConfigError);
}

}  // namespace
}  // namespace psllc::sim
