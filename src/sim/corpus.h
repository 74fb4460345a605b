// Trace-corpus runner: replays a set of recorded traces (a directory of
// .trace/.pslt files or the built-in demo corpus) across a grid of
// partition configurations, as the cells of one sim::TaskPool. This is
// the recorded-workload counterpart of run_sweep, which generates its
// workloads internally; both take their execution knobs (dram backend,
// horizon, thread budget) from SweepOptions.
//
// Corpora are streamed per entry: each entry's load is a pool root, run
// only when no cell is queued, so at most `workers` entries are resident
// at once (CorpusResult::peak_entries_resident). An optional cell mask
// restricts execution to a subset of the grid — the execution half of the
// cross-process work-unit protocol (sim/shard.h).
#ifndef PSLLC_SIM_CORPUS_H_
#define PSLLC_SIM_CORPUS_H_

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/mem_op.h"
#include "sim/experiment.h"

namespace psllc::sim {

/// One corpus workload: a name (the file stem for directory corpora) and
/// the recorded access stream.
struct CorpusEntry {
  std::string name;
  core::Trace trace;
};

/// A lazily loadable corpus workload. run_corpus invokes `load` once per
/// entry per run, on a worker thread (other entries' loads may run
/// concurrently), and only for entries with an owned cell.
struct CorpusSource {
  std::string name;
  std::function<core::Trace()> load;
};

/// How a single-stream corpus entry populates a multi-core system.
enum class CorpusReplay {
  /// The trace runs on core 0; the other cores stay idle. Safe for any
  /// address range, but exercises no inter-core contention.
  kSolo,
  /// Every active core replays the trace, with core i's copy shifted into
  /// its own power-of-two address window (disjoint footprints, like the
  /// paper's Figure 8 workloads). Requires the shifted addresses to fit
  /// the 64-bit address space.
  kMirrored,
};

/// One (trace, configuration) cell.
struct CorpusCell {
  std::string trace_name;
  SweepConfig config;
  RunMetrics metrics;
  /// False when the cell was excluded by the cell mask (its metrics are
  /// default-constructed) — partial grids of a sharded run.
  bool ran = false;
};

/// Op-mix / footprint summary of one trace, shared by the corpus runner's
/// corpus_traces series and `trace_convert --stats`.
struct TraceStats {
  std::int64_t ops = 0;
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  std::int64_t ifetches = 0;
  Addr min_addr = 0;  ///< 0 when the trace is empty
  Addr max_addr = 0;
  Cycle max_gap = 0;
  std::uint64_t total_gap = 0;  ///< saturates at UINT64_MAX
  std::int64_t distinct_lines = 0;  ///< 64 B cache lines touched
};

struct CorpusResult {
  std::vector<std::string> names;  ///< entry order of the run
  std::vector<SweepConfig> configs;
  /// cells[e * configs.size() + c]
  std::vector<CorpusCell> cells;
  /// Per-entry stats, computed while the entry was resident; meaningful
  /// only where entry_ran[e] (default-constructed otherwise).
  std::vector<TraceStats> entry_stats;
  /// entry_ran[e]: the entry had at least one executed cell (always true
  /// without a cell mask).
  std::vector<bool> entry_ran;
  /// Most entries concurrently loaded at any point of the run — bounded by
  /// the worker count, not the corpus size (per-entry streaming). An entry
  /// counts from the start of its load until its last cell finishes.
  int peak_entries_resident = 0;

  [[nodiscard]] const CorpusCell& cell(int entry_index,
                                       int config_index) const;
};

/// Runs every source against every configuration. Uses, from `options`:
/// `dram` (memory backend per cell), `max_cycles` (horizon) and `threads`
/// (resolve_thread_budget: the pool's worker count). One pool root per
/// entry loads it once, queues its other owned cells (more active cores
/// first) and runs the first itself, so even a one-trace corpus runs its
/// cells in parallel; the entry's last cell frees its trace.
/// `cell_mask`, when given, must have entries.size() * configs.size()
/// flags in cell order (e * configs.size() + c); cells with a false flag
/// are not executed (CorpusCell::ran == false) and entries with no owned
/// cell are never loaded. The workload-generation fields (seed, ranges,
/// accesses) are ignored — the corpus IS the workload. Results are
/// deterministic and independent of the thread count. Throws ConfigError
/// on an empty/duplicate-name corpus, and "corpus run failed:\n<entry>:
/// <what>" when a load or a cell fails: the first failure stops the pool
/// (no further entry is loaded) and is the one reported.
[[nodiscard]] CorpusResult run_corpus(const std::vector<CorpusSource>& sources,
                                      const std::vector<SweepConfig>& configs,
                                      const SweepOptions& options,
                                      CorpusReplay replay =
                                          CorpusReplay::kMirrored,
                                      const std::vector<bool>* cell_mask =
                                          nullptr);

/// Convenience overload over pre-materialized entries (which must outlive
/// the call); each entry is copied from `entries` instead of loaded from
/// disk.
[[nodiscard]] CorpusResult run_corpus(const std::vector<CorpusEntry>& entries,
                                      const std::vector<SweepConfig>& configs,
                                      const SweepOptions& options,
                                      CorpusReplay replay =
                                          CorpusReplay::kMirrored,
                                      const std::vector<bool>* cell_mask =
                                          nullptr);

/// Scans every "*.trace" (text) and "*.pslt" (binary) file directly under
/// `dir` (extensions matched case-insensitively), sorted by file stem; the
/// stem becomes the source name and loading is deferred to the returned
/// closures, so a corpus directory of any size costs one directory scan
/// here. Throws ConfigError when the directory holds no trace files or
/// two files share a stem, std::runtime_error when `dir` is not a
/// directory.
[[nodiscard]] std::vector<CorpusSource> corpus_dir_sources(
    const std::filesystem::path& dir);

/// corpus_dir_sources with every trace materialized immediately.
[[nodiscard]] std::vector<CorpusEntry> load_corpus_dir(
    const std::filesystem::path& dir);

/// Lazy sources for the deterministic built-in demo corpus (pointer
/// chase, strided scan, and two uniform-random mixes), sized by
/// `accesses` per entry. Used by bench/corpus_runner when no corpus
/// directory is given and emitted as files by `trace_convert --demo`, so
/// the file pipeline can be checked against the in-memory workloads bit
/// for bit.
[[nodiscard]] std::vector<CorpusSource> demo_corpus_sources(int accesses);

/// demo_corpus_sources with every trace materialized immediately.
[[nodiscard]] std::vector<CorpusEntry> make_demo_corpus(int accesses);

/// Streaming accumulator behind compute_trace_stats, usable over any op
/// source — e.g. a trace::MappedTrace decoded record by record, so
/// inspecting a multi-GiB binary file never materializes a core::Trace.
class TraceStatsAccumulator {
 public:
  void add(const core::MemOp& op);
  [[nodiscard]] TraceStats stats() const;

 private:
  TraceStats stats_;
  std::unordered_set<LineAddr> lines_;
};

[[nodiscard]] TraceStats compute_trace_stats(const core::Trace& trace);

}  // namespace psllc::sim

#endif  // PSLLC_SIM_CORPUS_H_
