#include "sim/corpus.h"

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "common/assert.h"
#include "common/string_util.h"
#include "sim/batch.h"
#include "sim/replay.h"
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

/// One corpus cell via the shared replay entry point. The entry's trace is
/// handed to sim::replay() as a shared workload — solo replay runs it on
/// core 0 alone; mirrored replay runs one replica per active core, shifted
/// by `window` — so no per-core trace copies are materialized.
CorpusCell run_corpus_cell(const std::string& name,
                           const SweepConfig& config,
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
  CorpusCell cell;
  cell.trace_name = name;
  cell.config = config;
  cell.metrics = sim::replay(request).metrics;
  cell.ran = true;
  return cell;
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

  // Cell-granular work on a fixed pool. A worker with nothing queued loads
  // the next entry once, queues that entry's other owned cells and runs
  // the heaviest itself; idle workers drain the queue before loading
  // another entry. When a worker starts a load the queue is empty, so
  // every resident entry has a cell running or a load in flight: at most
  // `workers` entries are ever resident. Every cell writes only its own
  // pre-sized slot, so results stay bit-identical for any thread count
  // and scheduling order.
  struct EntryWork {
    std::vector<std::size_t> configs;  ///< owned, more active cores first
    core::Trace trace;                 ///< resident while cells remain
    std::size_t remaining = 0;         ///< cells not yet finished
    std::once_flag window_once;
    Addr window = 0;
  };
  std::vector<EntryWork> work(num_entries);
  std::vector<std::size_t> to_load;
  std::size_t owned_cells = 0;
  for (std::size_t e = 0; e < num_entries; ++e) {
    for (std::size_t c = 0; c < num_configs; ++c) {
      if (cell_owned(e, c)) {
        work[e].configs.push_back(c);
      }
    }
    std::stable_sort(work[e].configs.begin(), work[e].configs.end(),
                     [&](std::size_t a, std::size_t b) {
                       return configs[a].active_cores >
                              configs[b].active_cores;
                     });
    if (!work[e].configs.empty()) {
      result.entry_ran[e] = true;
      to_load.push_back(e);
      owned_cells += work[e].configs.size();
    }
  }
  PSLLC_CONFIG_CHECK(!to_load.empty(),
                     "corpus cell mask excludes every cell of the grid");

  std::mutex mutex;
  std::condition_variable work_ready;
  std::deque<std::pair<std::size_t, std::size_t>> queue;  // (entry, config)
  std::size_t next_load = 0;
  int loads_in_flight = 0;  // their cells are not queued yet
  int resident = 0;
  int peak_resident = 0;
  bool failed = false;
  std::string failure;

  const auto fail = [&](std::size_t e, const std::string& what) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!failed) {
      failed = true;
      failure = sources[e].name + ": " + what;
    }
    work_ready.notify_all();
  };
  const auto worker = [&] {
    for (;;) {
      std::size_t e = 0;
      std::size_t c = 0;
      bool load = false;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_ready.wait(lock, [&] {
          return failed || !queue.empty() || next_load < to_load.size() ||
                 loads_in_flight == 0;
        });
        if (failed) {
          return;
        }
        if (!queue.empty()) {
          std::tie(e, c) = queue.front();
          queue.pop_front();
        } else if (next_load < to_load.size()) {
          e = to_load[next_load++];
          load = true;
          ++loads_in_flight;
          // Counted from before the load starts: a trace being
          // materialized is already resident memory, which is exactly
          // what the peak metric exists to bound.
          peak_resident = std::max(peak_resident, ++resident);
        } else {
          return;
        }
      }
      EntryWork& entry = work[e];
      try {
        if (load) {
          entry.trace = sources[e].load();
          {
            const std::lock_guard<std::mutex> lock(mutex);
            entry.remaining = entry.configs.size();
            for (std::size_t i = 1; i < entry.configs.size(); ++i) {
              queue.emplace_back(e, entry.configs[i]);
            }
            --loads_in_flight;
          }
          work_ready.notify_all();
          result.entry_stats[e] = compute_trace_stats(entry.trace);
          c = entry.configs.front();
        }
        Addr window = 0;
        if (replay == CorpusReplay::kMirrored && configs[c].active_cores > 1) {
          std::call_once(entry.window_once, [&] {
            entry.window = mirror_window(sources[e].name, entry.trace);
          });
          window = entry.window;
        }
        result.cells[e * num_configs + c] = run_corpus_cell(
            sources[e].name, configs[c], options, entry.trace, replay, window);
      } catch (const std::exception& ex) {
        fail(e, ex.what());
        return;
      } catch (...) {
        fail(e, "unknown exception");
        return;
      }
      core::Trace finished;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        if (--entry.remaining == 0) {
          finished.swap(entry.trace);
          --resident;
        }
      }
    }
  };

  {
    const auto workers = std::min<std::size_t>(
        static_cast<std::size_t>(resolve_thread_budget(options.threads)),
        owned_cells);
    std::vector<std::jthread> pool;
    pool.reserve(workers - 1);
    for (std::size_t i = 1; i < workers; ++i) {
      pool.emplace_back(worker);
    }
    worker();
  }
  PSLLC_CONFIG_CHECK(!failed, "corpus run failed:\n" << failure);
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
