#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "core/system_config.h"
#include "core/wcl_analysis.h"
#include "sim/adversary.h"
#include "sim/batch.h"
#include "sim/corpus.h"
#include "sim/experiment.h"
#include "sim/replay.h"
#include "sim/trace_io.h"
#include "sim/workload.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using psllc::CoreId;
using psllc::Cycle;
using psllc::core::ExperimentSetup;
using psllc::core::Trace;
using psllc::sim::RunMetrics;
using psllc::sim::SweepConfig;

// ReplayResult::used_kernel goes away once the kernel is the only engine;
// every cell then counts as a kernel cell.
template <typename R>
bool used_kernel(const R& result) {
  if constexpr (requires { result.used_kernel; }) {
    return result.used_kernel;
  } else {
    return true;
  }
}

std::int64_t total_ops(const std::vector<Trace>& traces) {
  std::int64_t ops = 0;
  for (const Trace& t : traces) {
    ops += static_cast<std::int64_t>(t.size());
  }
  return ops;
}

/// The paper platform for `config` with the sweep's memory backend, as
/// run_sweep and run_corpus build it.
ExperimentSetup paper_setup(const SweepConfig& config,
                            const psllc::mem::DramConfig& dram, Tracer* tracer,
                            std::int64_t cell, std::uint64_t parent) {
  ScopedSpan span(tracer, "core.setup", cell, parent);
  ExperimentSetup setup =
      psllc::core::make_paper_setup(config.notation, config.active_cores);
  setup.config.dram = dram;
  setup.config.validate();
  span.set_work(1);
  return setup;
}

/// One cell replayed from the benchmark's side: the analytical bounds and
/// the replay itself, each under its own span. The bounds are recomputed
/// through core/wcl_analysis and must equal what the replay reports.
RunMetrics replay_cell(const ExperimentSetup& setup,
                       const psllc::sim::ReplayWorkload& workload,
                       Cycle max_cycles, std::int64_t ops, Tracer& tracer,
                       std::int64_t cell, std::uint64_t parent, Pass& pass) {
  Cycle steady = 0;
  Cycle transient = 0;
  {
    ScopedSpan span(&tracer, "core.bound", cell, parent);
    steady = psllc::core::analytical_wcl_cycles(setup, CoreId{0});
    transient = psllc::core::transient_wcl_cycles(setup, CoreId{0});
    span.set_work(1);
  }
  psllc::sim::ReplayRequest request;
  request.setup = &setup;
  request.workload = workload;
  request.options.max_cycles = max_cycles;
  psllc::sim::ReplayResult result;
  {
    ScopedSpan span(&tracer, "sim.replay", cell, parent);
    result = psllc::sim::replay(request);
    span.set_work(ops);
  }
  if (result.metrics.analytical_wcl != steady ||
      result.metrics.transient_analytical_wcl != transient) {
    throw std::runtime_error("cell " + std::to_string(cell) +
                             ": replayed bounds differ from wcl_analysis");
  }
  pass.slot_widths[static_cast<std::size_t>(cell)] = setup.config.slot_width;
  pass.used_kernel[static_cast<std::size_t>(cell)] = used_kernel(result);
  return result.metrics;
}

/// Runs traced jobs under the worker budget and adds their busy time and
/// the batch wall time to `pass`.
void run_jobs(std::vector<psllc::sim::BatchJob> jobs, int workers,
              int max_concurrent, Pass& pass) {
  psllc::sim::BatchOptions batch;
  batch.threads = workers;
  batch.max_concurrent_jobs = max_concurrent;
  const std::int64_t start = now_ns();
  const psllc::sim::BatchReport report =
      psllc::sim::run_batch(std::move(jobs), batch);
  pass.batch_wall_seconds += static_cast<double>(now_ns() - start) * 1e-9;
  if (!report.all_ok()) {
    throw std::runtime_error("traced pass failed:\n" + report.error_summary());
  }
  for (const psllc::sim::JobOutcome& job : report.jobs) {
    pass.busy_seconds += job.seconds;
  }
}

Pass sized_pass(std::size_t cells) {
  Pass pass;
  pass.cells.resize(cells);
  pass.slot_widths.assign(cells, 0);
  pass.used_kernel.assign(cells, 0);
  return pass;
}

/// Writes `trace` as a .pslt file and times loading and decoding it back.
void probe_trace_file(const Trace& trace, const std::string& work_dir,
                      Tracer& tracer, std::int64_t cell) {
  const fs::path path =
      fs::path(work_dir) / ("probe_" + std::to_string(cell) + ".pslt");
  psllc::sim::write_trace_file(path.string(), trace);
  const Trace loaded = load_traced(path.string(), &tracer, cell);
  const auto same = [](const psllc::core::MemOp& a,
                       const psllc::core::MemOp& b) {
    return a.addr == b.addr && a.type == b.type && a.gap == b.gap;
  };
  if (!std::equal(loaded.begin(), loaded.end(), trace.begin(), trace.end(),
                  same)) {
    throw std::runtime_error("trace file round trip changed " + path.string());
  }
  probe_decode(path.string(), tracer, cell);
  fs::remove(path);
}

// --- sweep_dense -----------------------------------------------------------

// The Figure 7/8 grid on 4 cores, bus-saturated (gap 0, 25% writes,
// fixed-latency DRAM). Per-core ranges run from resident in the smaller
// partitions' per-core share (4 KiB) to 16x it, always beyond the 4 KiB
// private L2, so nearly every op reaches the LLC.
class SweepDense final : public Workload {
 public:
  explicit SweepDense(const WorkloadOptions& options)
      : work_dir_(options.work_dir) {
    configs_ = {{"SS(32,8,4)", 4},  {"NSS(32,8,4)", 4},  {"P(32,2)", 4},
                {"SS(32,16,4)", 4}, {"NSS(32,16,4)", 4}, {"P(32,4)", 4}};
    options_.address_ranges = {4096, 8192, 16384, 32768, 65536};
    options_.accesses_per_core = 12000;
    options_.write_fraction = 0.25;
    options_.seed = options.seed;
  }

  void setup(Tracer* tracer) override {
    // Traces depend on (seed, core, range) only, so each range's traces
    // serve every configuration.
    ops_ = 0;
    for (std::size_t r = 0; r < options_.address_ranges.size(); ++r) {
      ops_ += total_ops(cell_traces(r * configs_.size(), tracer, 0)) *
              static_cast<std::int64_t>(configs_.size());
    }
    for (const SweepConfig& config : configs_) {
      (void)paper_setup(config, options_.dram, tracer, -1, 0);
    }
  }

  [[nodiscard]] std::int64_t ops_per_pass() const override { return ops_; }

  [[nodiscard]] Pass run(int workers) override {
    psllc::sim::SweepOptions options = options_;
    options.threads = workers;
    const psllc::sim::SweepResult result =
        psllc::sim::run_sweep(configs_, options);
    Pass pass;
    for (const psllc::sim::SweepCell& cell : result.cells) {
      pass.cells.push_back(cell.metrics);
    }
    return pass;
  }

  [[nodiscard]] Pass run_traced(int workers, Tracer& tracer) override {
    Pass pass = sized_pass(cell_count());
    std::vector<psllc::sim::BatchJob> jobs;
    // run_sweep hands single cells to its workers; so does this pass.
    for (std::size_t index = 0; index < cell_count(); ++index) {
      jobs.push_back({"cell" + std::to_string(index), 1,
                      [this, index, &tracer, &pass](int) {
                        replay_sweep_cell(index, tracer, pass);
                      }});
    }
    run_jobs(std::move(jobs), workers, workers, pass);
    return pass;
  }

  void probe(Tracer& tracer) override {
    for (std::size_t index = 0; index < cell_count(); ++index) {
      const auto cell = static_cast<std::int64_t>(index);
      const std::vector<Trace> traces = cell_traces(index, nullptr, 0);
      const ExperimentSetup setup =
          paper_setup(config_of(index), options_.dram, nullptr, cell, 0);
      for (const Trace& trace : traces) {
        probe_private(trace, setup.config.private_caches, setup.config.seed,
                      tracer, cell);
      }
      probe_trace_file(traces.front(), work_dir_, tracer, cell);
    }
  }

 private:
  void replay_sweep_cell(std::size_t index, Tracer& tracer, Pass& pass) const {
    const auto cell = static_cast<std::int64_t>(index);
    ScopedSpan job(&tracer, "sim.batch.job", cell);
    const std::vector<Trace> traces = cell_traces(index, &tracer, job.id());
    const ExperimentSetup setup =
        paper_setup(config_of(index), options_.dram, &tracer, cell, job.id());
    psllc::sim::ReplayWorkload workload;
    workload.per_core = &traces;
    pass.cells[index] =
        replay_cell(setup, workload, options_.max_cycles, total_ops(traces),
                    tracer, cell, job.id(), pass);
  }

  [[nodiscard]] std::size_t cell_count() const {
    return configs_.size() * options_.address_ranges.size();
  }
  // Cell order is run_sweep's: row-major (range, config).
  [[nodiscard]] const SweepConfig& config_of(std::size_t index) const {
    return configs_[index % configs_.size()];
  }
  [[nodiscard]] psllc::sim::RandomWorkloadOptions random_options(
      std::int64_t range) const {
    psllc::sim::RandomWorkloadOptions random;
    random.range_bytes = range;
    random.accesses = options_.accesses_per_core;
    random.write_fraction = options_.write_fraction;
    return random;
  }
  [[nodiscard]] std::vector<Trace> cell_traces(std::size_t index,
                                               Tracer* tracer,
                                               std::uint64_t parent) const {
    ScopedSpan span(tracer, "trace.gen", static_cast<std::int64_t>(index),
                    parent);
    std::vector<Trace> traces = psllc::sim::make_disjoint_random_workload(
        config_of(index).active_cores,
        random_options(
            options_.address_ranges[index / configs_.size()]),
        options_.seed);
    span.set_work(total_ops(traces));
    return traces;
  }

  std::string work_dir_;
  std::vector<SweepConfig> configs_;
  psllc::sim::SweepOptions options_;
  std::int64_t ops_ = 0;
};

// --- corpus_periodic -------------------------------------------------------

constexpr int kPeriodicTasks = 12;
constexpr int kJobsPerTask = 120;
constexpr int kOpsPerJob = 100;

/// A recorded periodic task: kJobsPerTask jobs over a 1-8 KiB footprint,
/// each released after a think gap of hundreds of TDM slot widths. The
/// task index fixes the access pattern (random, pointer chase or strided
/// scan) and the footprint; the seed fixes addresses, chase order and the
/// period.
Trace make_periodic_task(int index, std::uint64_t seed) {
  const int pattern = index % 3;
  const std::int64_t footprint = std::int64_t{1024} << ((index / 3) % 4);
  const int lines = static_cast<int>(footprint / 64);
  psllc::Rng rng(psllc::mix_seed(seed, static_cast<std::uint64_t>(index)));
  const Cycle period =
      rng.next_in_range(200, 600) * psllc::core::kPaperSlotWidth;
  const std::uint64_t chase_seed = rng.next_u64();
  Trace trace;
  trace.reserve(static_cast<std::size_t>(kJobsPerTask) * kOpsPerJob);
  for (int job = 0; job < kJobsPerTask; ++job) {
    Trace body;
    if (pattern == 0) {
      psllc::sim::RandomWorkloadOptions random;
      random.range_bytes = footprint;
      random.accesses = kOpsPerJob;
      random.write_fraction = 0.2;
      random.gap = 4;
      body = psllc::sim::make_uniform_random_trace(
          0, random,
          psllc::mix_seed(seed, static_cast<std::uint64_t>(index),
                          static_cast<std::uint64_t>(job)));
    } else if (pattern == 1) {
      body = psllc::sim::make_pointer_chase_trace(0, lines, kOpsPerJob,
                                                  chase_seed);
    } else {
      body = psllc::sim::make_strided_trace(0, 64, lines,
                                            kOpsPerJob / lines + 1);
      body.resize(kOpsPerJob);
    }
    body.front().gap = period;
    trace.insert(trace.end(), body.begin(), body.end());
  }
  return trace;
}

/// run_corpus's mirror window: the power of two holding every address of
/// the trace plus its line, at least 4 KiB.
psllc::Addr mirror_window(const Trace& trace) {
  psllc::Addr max_addr = 0;
  for (const psllc::core::MemOp& op : trace) {
    max_addr = std::max(max_addr, op.addr);
  }
  return std::max<psllc::Addr>(std::bit_ceil(max_addr + 64), 4096);
}

// Recorded periodic tasks written as .pslt during set-up, scanned with
// corpus_dir_sources and replayed mirrored and solo by run_corpus. Every
// partition gives each core at least 8 KiB, so the LLC stays nearly idle.
class CorpusPeriodic final : public Workload {
 public:
  explicit CorpusPeriodic(const WorkloadOptions& options)
      : seed_(options.seed),
        work_dir_(options.work_dir),
        corpus_dir_(fs::path(options.work_dir) / "corpus") {
    configs_ = {{"P(32,4)", 4},
                {"P(32,8)", 2},
                {"SS(32,16,4)", 4},
                {"NSS(32,16,4)", 4}};
  }

  void setup(Tracer* tracer) override {
    fs::remove_all(corpus_dir_);
    fs::create_directories(corpus_dir_);
    task_ops_.clear();
    for (int task = 0; task < kPeriodicTasks; ++task) {
      Trace trace;
      {
        ScopedSpan span(tracer, "trace.gen", -1);
        trace = make_periodic_task(task, seed_);
        span.set_work(static_cast<std::int64_t>(trace.size()));
      }
      char name[32];
      std::snprintf(name, sizeof name, "task%02d.pslt", task);
      psllc::sim::write_trace_file((corpus_dir_ / name).string(), trace);
      task_ops_.push_back(static_cast<std::int64_t>(trace.size()));
    }
    sources_ = psllc::sim::corpus_dir_sources(corpus_dir_);
    files_.clear();
    for (const psllc::sim::CorpusSource& source : sources_) {
      files_.push_back((corpus_dir_ / (source.name + ".pslt")).string());
    }
  }

  [[nodiscard]] std::int64_t ops_per_pass() const override {
    std::int64_t replicas = 0;
    for (const SweepConfig& config : configs_) {
      replicas += config.active_cores + 1;  // mirrored + solo
    }
    std::int64_t ops = 0;
    for (const std::int64_t n : task_ops_) {
      ops += n * replicas;
    }
    return ops;
  }

  [[nodiscard]] Pass run(int workers) override {
    psllc::sim::SweepOptions options;
    options.threads = workers;
    Pass pass;
    for (const psllc::sim::CorpusReplay mode : kModes) {
      const psllc::sim::CorpusResult result =
          psllc::sim::run_corpus(sources_, configs_, options, mode);
      for (const psllc::sim::CorpusCell& cell : result.cells) {
        pass.cells.push_back(cell.metrics);
      }
    }
    return pass;
  }

  [[nodiscard]] Pass run_traced(int workers, Tracer& tracer) override {
    const std::size_t grid = files_.size() * configs_.size();
    Pass pass = sized_pass(grid * std::size(kModes));
    const std::vector<std::vector<std::size_t>> groups = core_groups();
    for (std::size_t m = 0; m < std::size(kModes); ++m) {
      const bool mirrored = kModes[m] == psllc::sim::CorpusReplay::kMirrored;
      // run_corpus's jobs: one per (entry, active-core count), each loading
      // its entry and replaying that core count's configs serially.
      std::vector<psllc::sim::BatchJob> jobs;
      for (std::size_t e = 0; e < files_.size(); ++e) {
        for (const std::vector<std::size_t>& group : groups) {
          jobs.push_back(
              {"entry" + std::to_string(e), 1,
               [&, m, e, mirrored](int) {
                 const auto base = static_cast<std::int64_t>(
                     m * grid + e * configs_.size());
                 ScopedSpan job(&tracer, "sim.batch.job", base);
                 const Trace trace =
                     load_traced(files_[e], &tracer, base, job.id());
                 (void)psllc::sim::compute_trace_stats(trace);
                 const int cores = configs_[group.front()].active_cores;
                 const psllc::Addr window =
                     mirrored && cores > 1 ? mirror_window(trace) : 0;
                 for (const std::size_t c : group) {
                   const auto cell = base + static_cast<std::int64_t>(c);
                   const ExperimentSetup setup =
                       paper_setup(configs_[c], {}, &tracer, cell, job.id());
                   psllc::sim::ReplayWorkload workload;
                   workload.shared = &trace;
                   workload.replicas = mirrored ? configs_[c].active_cores : 1;
                   workload.window = mirrored ? window : 0;
                   pass.cells[static_cast<std::size_t>(cell)] = replay_cell(
                       setup, workload, psllc::sim::SweepOptions{}.max_cycles,
                       static_cast<std::int64_t>(trace.size()) *
                           workload.replicas,
                       tracer, cell, job.id(), pass);
                 }
               }});
        }
      }
      const int concurrent =
          std::max(1, std::min(workers, static_cast<int>(jobs.size())));
      run_jobs(std::move(jobs), workers, concurrent, pass);
    }
    return pass;
  }

  void probe(Tracer& tracer) override {
    for (std::size_t e = 0; e < files_.size(); ++e) {
      const auto cell = static_cast<std::int64_t>(e * configs_.size());
      probe_decode(files_[e], tracer, cell);
      const Trace trace = psllc::sim::read_trace_file(files_[e]);
      for (std::size_t c = 0; c < configs_.size(); ++c) {
        const ExperimentSetup setup =
            paper_setup(configs_[c], {}, nullptr, -1, 0);
        probe_private(trace, setup.config.private_caches, setup.config.seed,
                      tracer, cell + static_cast<std::int64_t>(c));
      }
    }
  }

 private:
  static constexpr psllc::sim::CorpusReplay kModes[] = {
      psllc::sim::CorpusReplay::kMirrored, psllc::sim::CorpusReplay::kSolo};

  /// Config indices grouped by active core count, in first-seen order.
  [[nodiscard]] std::vector<std::vector<std::size_t>> core_groups() const {
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t c = 0; c < configs_.size(); ++c) {
      auto it = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
        return configs_[g.front()].active_cores == configs_[c].active_cores;
      });
      if (it == groups.end()) {
        groups.push_back({c});
      } else {
        it->push_back(c);
      }
    }
    return groups;
  }

  std::uint64_t seed_;
  std::string work_dir_;
  fs::path corpus_dir_;
  std::vector<SweepConfig> configs_;
  std::vector<std::int64_t> task_ops_;
  std::vector<psllc::sim::CorpusSource> sources_;
  std::vector<std::string> files_;
};

// --- adversary_search ------------------------------------------------------

// run_adversary_search over every attack kind x SS/NSS/P on 2 and 4 cores,
// with three hill-climb rounds: many short cells, write-back storms on the
// bounded write queue, repartition drains and NSS steals.
class AdversarySearch final : public Workload {
 public:
  explicit AdversarySearch(const WorkloadOptions& options)
      : work_dir_(options.work_dir) {
    options_.configs = {{"SS(32,2,2)", 2}, {"NSS(32,2,2)", 2},
                        {"P(8,2)", 2},     {"SS(32,2,4)", 4},
                        {"NSS(32,2,4)", 4}, {"P(8,2)", 4}};
    options_.seed = options.seed;
    options_.ops_per_core = 1000;
    options_.rounds = 3;
    options_.survivors = 1;
    options_.mutants = 2;
  }

  void setup(Tracer* tracer) override {
    options_.validate();
    for (const psllc::sim::AttackKind kind : options_.kinds) {
      for (const psllc::sim::AttackSpec& spec : psllc::sim::seed_manifest(
               kind, options_.seed, options_.ops_per_core)) {
        for (const SweepConfig& config : options_.configs) {
          const ExperimentSetup setup = cell_setup(spec, config, tracer, -1, 0);
          (void)attack_traces(spec, config, setup, tracer, -1, 0);
        }
      }
    }
  }

  [[nodiscard]] std::int64_t ops_per_pass() const override {
    std::int64_t cores = 0;
    for (const SweepConfig& config : options_.configs) {
      cores += config.active_cores;
    }
    return cores * static_cast<std::int64_t>(options_.kinds.size()) *
           options_.cells_per_track() * options_.ops_per_core;
  }

  [[nodiscard]] Pass run(int workers) override {
    psllc::sim::AdversaryOptions options = options_;
    options.threads = workers;
    const psllc::sim::AdversaryResult result =
        psllc::sim::run_adversary_search(options);
    Pass pass;
    plan_.clear();
    for (const psllc::sim::AdversaryTrack& track : result.tracks) {
      plan_.emplace_back();
      for (const psllc::sim::AdversaryCell& cell : track.cells) {
        pass.cells.push_back(cell.metrics);
        plan_.back().push_back(cell);
      }
    }
    return pass;
  }

  [[nodiscard]] Pass run_traced(int workers, Tracer& tracer) override {
    if (plan_.empty()) {
      throw std::logic_error("adversary traced pass needs a searched plan");
    }
    const auto per_track =
        static_cast<std::size_t>(options_.cells_per_track());
    Pass pass = sized_pass(plan_.size() * per_track);
    std::int64_t generated = 0;
    std::mutex generated_mutex;
    // run_adversary_search runs one serial job per (kind, config) track.
    std::vector<psllc::sim::BatchJob> jobs;
    for (std::size_t t = 0; t < plan_.size(); ++t) {
      jobs.push_back({"track" + std::to_string(t), 1, [&, t](int) {
                        const std::int64_t ops =
                            replay_track(t, per_track, tracer, pass);
                        const std::lock_guard<std::mutex> lock(generated_mutex);
                        generated += ops;
                      }});
    }
    run_jobs(std::move(jobs), workers, workers, pass);
    if (generated != ops_per_pass()) {
      throw std::runtime_error("adversary cells replayed " +
                               std::to_string(generated) + " ops, expected " +
                               std::to_string(ops_per_pass()));
    }
    return pass;
  }

  void probe(Tracer& tracer) override {
    const auto per_track =
        static_cast<std::size_t>(options_.cells_per_track());
    for (std::size_t t = 0; t < plan_.size(); ++t) {
      for (std::size_t i = 0; i < plan_[t].size(); ++i) {
        const psllc::sim::AdversaryCell& planned = plan_[t][i];
        const auto cell = static_cast<std::int64_t>(t * per_track + i);
        const ExperimentSetup setup =
            psllc::sim::make_cell_setup(planned.spec, planned.config);
        const std::vector<Trace> traces = attack_traces(
            planned.spec, planned.config, setup, nullptr, cell, 0);
        for (const Trace& trace : traces) {
          probe_private(trace, setup.config.private_caches, setup.config.seed,
                        tracer, cell);
        }
        probe_trace_file(traces.front(), work_dir_, tracer, cell);
      }
    }
  }

 private:
  /// Replays track `t` of the plan cell by cell; returns the ops replayed.
  std::int64_t replay_track(std::size_t t, std::size_t per_track,
                            Tracer& tracer, Pass& pass) const {
    ScopedSpan job(&tracer, "sim.batch.job",
                   static_cast<std::int64_t>(t * per_track));
    std::int64_t ops = 0;
    for (std::size_t i = 0; i < plan_[t].size(); ++i) {
      const psllc::sim::AdversaryCell& planned = plan_[t][i];
      const auto cell = static_cast<std::int64_t>(t * per_track + i);
      const ExperimentSetup setup =
          cell_setup(planned.spec, planned.config, &tracer, cell, job.id());
      const std::vector<Trace> traces = attack_traces(
          planned.spec, planned.config, setup, &tracer, cell, job.id());
      psllc::sim::ReplayWorkload workload;
      workload.per_core = &traces;
      pass.cells[static_cast<std::size_t>(cell)] =
          replay_cell(setup, workload, options_.max_cycles, total_ops(traces),
                      tracer, cell, job.id(), pass);
      ops += total_ops(traces);
    }
    return ops;
  }

  static ExperimentSetup cell_setup(const psllc::sim::AttackSpec& spec,
                                    const SweepConfig& config, Tracer* tracer,
                                    std::int64_t cell, std::uint64_t parent) {
    ScopedSpan span(tracer, "core.setup", cell, parent);
    ExperimentSetup setup = psllc::sim::make_cell_setup(spec, config);
    span.set_work(1);
    return setup;
  }

  static std::vector<Trace> attack_traces(const psllc::sim::AttackSpec& spec,
                                          const SweepConfig& config,
                                          const ExperimentSetup& setup,
                                          Tracer* tracer, std::int64_t cell,
                                          std::uint64_t parent) {
    ScopedSpan span(tracer, "trace.gen", cell, parent);
    std::vector<Trace> traces;
    for (int c = 0; c < config.active_cores; ++c) {
      traces.push_back(psllc::sim::make_attack_trace(spec, setup, CoreId{c}));
    }
    span.set_work(total_ops(traces));
    return traces;
  }

  std::string work_dir_;
  psllc::sim::AdversaryOptions options_;
  /// The cells of the last search, per track in evaluation order.
  std::vector<std::vector<psllc::sim::AdversaryCell>> plan_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sweep_dense", "corpus_periodic", "adversary_search"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options) {
  if (name == "sweep_dense") {
    return std::make_unique<SweepDense>(options);
  }
  if (name == "corpus_periodic") {
    return std::make_unique<CorpusPeriodic>(options);
  }
  if (name == "adversary_search") {
    return std::make_unique<AdversarySearch>(options);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
