#include "sim/corpus.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <set>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/assert.h"
#include "common/string_util.h"
#include "sim/replay.h"
#include "sim/task_pool.h"
#include "sim/trace_io.h"
#include "sim/workload.h"
#include "trace/binary_io.h"

namespace psllc::sim {

const CorpusCell& CorpusResult::cell(int entry_index,
                                     int config_index) const {
  PSLLC_ASSERT(entry_index >= 0 &&
                   entry_index < static_cast<int>(names.size()),
               "corpus entry index " << entry_index);
  PSLLC_ASSERT(config_index >= 0 &&
                   config_index < static_cast<int>(configs.size()),
               "corpus config index " << config_index);
  return cells[static_cast<std::size_t>(entry_index) * configs.size() +
               static_cast<std::size_t>(config_index)];
}

namespace {

/// Power-of-two window that contains every address of `trace` (plus its
/// line), so shifted copies occupy disjoint footprints. Floors at 4 KiB to
/// keep tiny traces' windows page-aligned.
Addr mirror_window(const std::string& name, const core::Trace& trace) {
  Addr max_addr = 0;
  for (const core::MemOp& op : trace) {
    max_addr = std::max(max_addr, op.addr);
  }
  PSLLC_CONFIG_CHECK(max_addr <= (Addr{1} << 62),
                     "corpus entry '" << name
                         << "': trace addresses reach 0x" << std::hex
                         << max_addr << std::dec
                         << "; mirrored replay cannot shift disjoint "
                            "copies — use solo replay");
  return std::max<Addr>(std::bit_ceil(max_addr + 64), 4096);
}

/// One corpus cell's metrics via the shared replay entry point. The entry's
/// trace is handed to sim::replay() as a shared workload — solo replay runs
/// it on core 0 alone; mirrored replay runs one replica per active core,
/// shifted by `window` — so no per-core trace copies are materialized.
RunMetrics replay_corpus_cell(const SweepConfig& config,
                              const SweepOptions& options,
                              const core::Trace& trace, CorpusReplay replay,
                              Addr window) {
  core::ExperimentSetup setup =
      core::make_paper_setup(config.notation, config.active_cores);
  setup.config.dram = options.dram;
  setup.config.validate();
  ReplayRequest request;
  request.setup = &setup;
  request.workload.shared = &trace;
  request.workload.replicas =
      replay == CorpusReplay::kSolo ? 1 : config.active_cores;
  request.workload.window = replay == CorpusReplay::kSolo ? 0 : window;
  request.options.max_cycles = options.max_cycles;
  return sim::replay(request).metrics;
}

}  // namespace

CorpusResult run_corpus(const std::vector<CorpusSource>& sources,
                        const std::vector<SweepConfig>& configs,
                        const SweepOptions& options, CorpusReplay replay,
                        const std::vector<bool>* cell_mask) {
  PSLLC_CONFIG_CHECK(!sources.empty(), "corpus run needs >= 1 trace");
  PSLLC_CONFIG_CHECK(!configs.empty(),
                     "corpus run needs >= 1 configuration");
  std::set<std::string> seen;
  for (const CorpusSource& source : sources) {
    PSLLC_CONFIG_CHECK(!source.name.empty(), "corpus entry needs a name");
    PSLLC_CONFIG_CHECK(static_cast<bool>(source.load),
                       "corpus entry '" << source.name
                                        << "' has no loader");
    PSLLC_CONFIG_CHECK(seen.insert(source.name).second,
                       "duplicate corpus entry '" << source.name << "'");
  }
  const std::size_t num_entries = sources.size();
  const std::size_t num_configs = configs.size();
  PSLLC_CONFIG_CHECK(
      cell_mask == nullptr ||
          cell_mask->size() == num_entries * num_configs,
      "corpus cell mask has " << (cell_mask ? cell_mask->size() : 0)
                              << " flags for a grid of "
                              << num_entries * num_configs << " cells");
  const auto cell_owned = [&](std::size_t e, std::size_t c) {
    return cell_mask == nullptr || (*cell_mask)[e * num_configs + c];
  };

  CorpusResult result;
  result.configs = configs;
  result.names.reserve(num_entries);
  for (const CorpusSource& source : sources) {
    result.names.push_back(source.name);
  }
  // Every cell is pre-labelled so masked-out cells still identify
  // themselves (with ran == false and default metrics).
  result.cells.resize(num_entries * num_configs);
  for (std::size_t e = 0; e < num_entries; ++e) {
    for (std::size_t c = 0; c < num_configs; ++c) {
      CorpusCell& cell = result.cells[e * num_configs + c];
      cell.trace_name = sources[e].name;
      cell.config = configs[c];
    }
  }
  result.entry_stats.resize(num_entries);
  result.entry_ran.assign(num_entries, false);

  // Cell-granular work on one task pool: one root per entry loads it once,
  // queues that entry's other owned cells and runs the heaviest itself;
  // idle workers take queued cells before the pool hands out another root.
  // A root starts only when no cell is queued, so every resident entry has
  // a task running: at most `workers` entries are ever resident. Every cell
  // writes only its own pre-sized slot, so results stay bit-identical for
  // any thread count and scheduling order. owned[e] lists entry e's owned
  // configs, more active cores first.
  std::vector<std::vector<std::size_t>> owned(num_entries);
  std::vector<std::size_t> to_load;
  for (std::size_t e = 0; e < num_entries; ++e) {
    for (std::size_t c = 0; c < num_configs; ++c) {
      if (cell_owned(e, c)) {
        owned[e].push_back(c);
      }
    }
    std::stable_sort(owned[e].begin(), owned[e].end(),
                     [&](std::size_t a, std::size_t b) {
                       return configs[a].active_cores >
                              configs[b].active_cores;
                     });
    if (!owned[e].empty()) {
      result.entry_ran[e] = true;
      to_load.push_back(e);
    }
  }
  PSLLC_CONFIG_CHECK(!to_load.empty(),
                     "corpus cell mask excludes every cell of the grid");

  std::atomic<int> resident{0};
  std::atomic<int> peak_resident{0};
  TaskPool pool(resolve_thread_budget(options.threads));
  pool.run(to_load.size(), [&](std::size_t root) {
    const std::size_t e = to_load[root];
    const std::string& name = sources[e].name;
    run_named("corpus run failed:", name, [&] {
      // Resident from before the load starts (a trace being materialized is
      // already resident memory, which is exactly what the peak metric
      // exists to bound) until the last cell holding it lets go.
      const int now = ++resident;
      for (int peak = peak_resident;
           now > peak && !peak_resident.compare_exchange_weak(peak, now);) {
      }
      const std::shared_ptr<const core::Trace> trace(
          new core::Trace(sources[e].load()),
          [&resident](const core::Trace* loaded) {
            delete loaded;
            --resident;
          });
      const Addr window = replay == CorpusReplay::kMirrored &&
                                  configs[owned[e].front()].active_cores > 1
                              ? mirror_window(name, *trace)
                              : 0;
      // Cells are pre-labelled; each fills in only its own slot's run.
      const auto run_cell = [&, e, trace, window](std::size_t c) {
        CorpusCell& cell = result.cells[e * num_configs + c];
        cell.metrics =
            replay_corpus_cell(configs[c], options, *trace, replay, window);
        cell.ran = true;
      };
      for (std::size_t i = 1; i < owned[e].size(); ++i) {
        pool.enqueue([&name, run_cell, c = owned[e][i]] {
          run_named("corpus run failed:", name, [&] { run_cell(c); });
        });
      }
      result.entry_stats[e] = compute_trace_stats(*trace);
      run_cell(owned[e].front());
    });
  });
  result.peak_entries_resident = peak_resident;
  return result;
}

CorpusResult run_corpus(const std::vector<CorpusEntry>& entries,
                        const std::vector<SweepConfig>& configs,
                        const SweepOptions& options, CorpusReplay replay,
                        const std::vector<bool>* cell_mask) {
  std::vector<CorpusSource> sources;
  sources.reserve(entries.size());
  for (const CorpusEntry& entry : entries) {
    sources.push_back({entry.name, [&entry] { return entry.trace; }});
  }
  return run_corpus(sources, configs, options, replay, cell_mask);
}

std::vector<CorpusSource> corpus_dir_sources(
    const std::filesystem::path& dir) {
  if (!std::filesystem::is_directory(dir)) {
    throw std::runtime_error("corpus path " + dir.string() +
                             " is not a directory");
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string ext = entry.path().extension().string();
    if (iequals(ext, ".trace") ||
        trace::has_binary_trace_extension(entry.path().string())) {
      files.push_back(entry.path());
    }
  }
  PSLLC_CONFIG_CHECK(!files.empty(), "corpus directory "
                                         << dir.string()
                                         << " holds no .trace/.pslt files");
  std::sort(files.begin(), files.end(),
            [](const std::filesystem::path& a,
               const std::filesystem::path& b) {
              return a.stem().string() < b.stem().string();
            });
  std::vector<CorpusSource> sources;
  sources.reserve(files.size());
  for (const std::filesystem::path& file : files) {
    CorpusSource source;
    source.name = file.stem().string();
    PSLLC_CONFIG_CHECK(sources.empty() ||
                           sources.back().name != source.name,
                       "corpus directory "
                           << dir.string() << ": two trace files share the "
                           << "stem '" << source.name << "'");
    source.load = [file] { return read_trace_file(file.string()); };
    sources.push_back(std::move(source));
  }
  return sources;
}

std::vector<CorpusEntry> load_corpus_dir(const std::filesystem::path& dir) {
  std::vector<CorpusEntry> corpus;
  for (const CorpusSource& source : corpus_dir_sources(dir)) {
    corpus.push_back({source.name, source.load()});
  }
  return corpus;
}

void TraceStatsAccumulator::add(const core::MemOp& op) {
  if (stats_.ops == 0) {
    stats_.min_addr = op.addr;
  }
  ++stats_.ops;
  stats_.reads += op.type == AccessType::kRead ? 1 : 0;
  stats_.writes += op.type == AccessType::kWrite ? 1 : 0;
  stats_.ifetches += op.type == AccessType::kIfetch ? 1 : 0;
  stats_.min_addr = std::min(stats_.min_addr, op.addr);
  stats_.max_addr = std::max(stats_.max_addr, op.addr);
  stats_.max_gap = std::max(stats_.max_gap, op.gap);
  // Gaps reach 2^56 per op, so the sum can exceed 64 bits: saturate.
  const auto gap = static_cast<std::uint64_t>(op.gap);
  stats_.total_gap = stats_.total_gap > ~gap ? ~std::uint64_t{0}
                                             : stats_.total_gap + gap;
  lines_.insert(op.addr >> 6);
}

TraceStats TraceStatsAccumulator::stats() const {
  TraceStats out = stats_;
  out.distinct_lines = static_cast<std::int64_t>(lines_.size());
  return out;
}

TraceStats compute_trace_stats(const core::Trace& trace) {
  TraceStatsAccumulator acc;
  for (const core::MemOp& op : trace) {
    acc.add(op);
  }
  return acc.stats();
}

std::vector<CorpusSource> demo_corpus_sources(int accesses) {
  PSLLC_CONFIG_CHECK(accesses >= 1 && accesses <= 10'000'000,
                     "demo corpus needs accesses in [1, 1e7], got "
                         << accesses);
  std::vector<CorpusSource> sources;

  // Hot pointer chase: a 64-line working set walked `accesses` times —
  // maximally replacement-hostile ordering.
  sources.push_back({"chase_hot", [accesses] {
                       return make_pointer_chase_trace(0, 64, accesses,
                                                       101);
                     }});

  // Cold strided scan: every access a new line, reads only.
  sources.push_back({"stride_scan", [accesses] {
                       return make_strided_trace(0, 64, accesses, 1);
                     }});

  // Uniform random over 8 KiB with think time between accesses.
  sources.push_back({"uniform_gap", [accesses] {
                       RandomWorkloadOptions gap_options;
                       gap_options.range_bytes = 8192;
                       gap_options.accesses = accesses;
                       gap_options.write_fraction = 0.25;
                       gap_options.gap = 8;
                       return make_uniform_random_trace(0, gap_options,
                                                        202);
                     }});

  // Wide uniform random: 64 KiB footprint, mostly reads, back to back.
  sources.push_back({"uniform_wide", [accesses] {
                       RandomWorkloadOptions wide_options;
                       wide_options.range_bytes = 65536;
                       wide_options.accesses = accesses;
                       wide_options.write_fraction = 0.1;
                       return make_uniform_random_trace(0, wide_options,
                                                        303);
                     }});

  // Entry order is name order, matching corpus_dir_sources on the emitted
  // files.
  return sources;
}

std::vector<CorpusEntry> make_demo_corpus(int accesses) {
  std::vector<CorpusEntry> corpus;
  for (const CorpusSource& source : demo_corpus_sources(accesses)) {
    corpus.push_back({source.name, source.load()});
  }
  return corpus;
}

}  // namespace psllc::sim
