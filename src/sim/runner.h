// One-shot experiment runner: builds a System from an ExperimentSetup,
// installs traces, runs to completion, and gathers the metrics the paper's
// evaluation reports.
#ifndef PSLLC_SIM_RUNNER_H_
#define PSLLC_SIM_RUNNER_H_

#include <cstdint>
#include <vector>

#include "core/system.h"
#include "core/system_config.h"
#include "mem/memory_backend.h"

namespace psllc::sim {

struct RunMetrics {
  bool completed = false;   ///< all traces finished within the horizon
  Cycle end_cycle = 0;      ///< simulated time consumed
  Cycle makespan = 0;       ///< max per-core trace finish time (Figure 8)
  Cycle observed_wcl = 0;   ///< max service latency over all requests (Fig 7)
  Cycle analytical_wcl = 0; ///< bound from core/wcl_analysis for core 0
  /// Max service latency over requests in flight across a partition-mode
  /// transition window; kNoCycle when none overlapped (always for static
  /// programs).
  Cycle observed_transient_wcl = kNoCycle;
  /// Transient bound (core/wcl_analysis transient_wcl_cycles) for core 0;
  /// equals analytical_wcl for static programs.
  Cycle transient_analytical_wcl = 0;
  std::int64_t llc_requests = 0;  ///< completed LLC requests
  std::vector<Cycle> per_core_finish;
  std::vector<std::int64_t> per_core_l1_hits;
  std::vector<std::int64_t> per_core_l2_hits;
  std::vector<std::int64_t> per_core_misses;
  llc::PartitionedLlc::Stats llc_stats;
  /// Full counter set of the memory backend (row hits/misses, write-queue
  /// depth/stalls, worst observed access latency, ...).
  mem::MemoryCounters memory;
  std::int64_t dram_reads = 0;   ///< == memory.reads
  std::int64_t dram_writes = 0;  ///< == memory.writes

  /// Field-wise equality: the engines' bit-identity contract.
  [[nodiscard]] bool operator==(const RunMetrics&) const = default;
};

struct RunOptions {
  /// Safety horizon; a run that does not finish within it reports
  /// completed == false (used deliberately by the unbounded scenario).
  Cycle max_cycles = 2'000'000'000;
};

/// Runs `traces` (one per core, padded with empty traces) built from
/// `setup`. Thin wrapper over sim::replay() with a per-core workload and
/// automatic engine choice — takes the replay kernel when eligible, the
/// legacy System loop otherwise (see sim/replay.h).
[[nodiscard]] RunMetrics run_experiment(const core::ExperimentSetup& setup,
                                        const std::vector<core::Trace>& traces,
                                        const RunOptions& options = {});

/// As above, but against an already-constructed system (traces installed by
/// the caller); `analytical_wcl` is filled from `setup`.
[[nodiscard]] RunMetrics run_system(core::System& system,
                                    const core::ExperimentSetup& setup,
                                    const RunOptions& options = {});

}  // namespace psllc::sim

#endif  // PSLLC_SIM_RUNNER_H_
