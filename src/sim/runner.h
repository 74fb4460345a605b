// One-shot experiment runner: replays per-core traces on an ExperimentSetup
// and gathers the metrics the paper's evaluation reports.
#ifndef PSLLC_SIM_RUNNER_H_
#define PSLLC_SIM_RUNNER_H_

#include <cstdint>
#include <vector>

#include "core/mem_op.h"
#include "core/system_config.h"
#include "llc/llc.h"
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

  /// Field-wise equality: replay() and replay_every_slot() agree on it.
  [[nodiscard]] bool operator==(const RunMetrics&) const = default;
};

struct RunOptions {
  /// Safety horizon; a run that does not finish within it reports
  /// completed == false (used deliberately by the unbounded scenario).
  Cycle max_cycles = 2'000'000'000;
};

/// Runs `traces` (one per core, padded with empty traces) built from
/// `setup`. Thin wrapper over sim::replay() with a per-core workload (see
/// sim/replay.h).
[[nodiscard]] RunMetrics run_experiment(const core::ExperimentSetup& setup,
                                        const std::vector<core::Trace>& traces,
                                        const RunOptions& options = {});

}  // namespace psllc::sim

#endif  // PSLLC_SIM_RUNNER_H_
