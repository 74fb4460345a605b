// Sweep harness regenerating the paper's evaluation figures: a grid of
// (partition configuration x address range) cells, with the same per-core
// traces replayed against every configuration (paper Section 5).
#ifndef PSLLC_SIM_EXPERIMENT_H_
#define PSLLC_SIM_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "mem/dram.h"
#include "results/result_store.h"
#include "sim/runner.h"
#include "sim/workload.h"

namespace psllc::sim {

/// One configuration column of a sweep.
struct SweepConfig {
  std::string notation;  ///< e.g. "SS(1,2,4)"
  int active_cores = 4;
};

struct SweepOptions {
  /// The paper's x-axis: 1 KiB .. 256 KiB.
  std::vector<std::int64_t> address_ranges = {1024,  2048,   4096,
                                              8192,  16384,  32768,
                                              65536, 131072, 262144};
  int accesses_per_core = 20000;
  double write_fraction = 0.25;
  std::uint64_t seed = 42;
  Cycle max_cycles = 2'000'000'000;
  /// Memory backend behind the LLC for every cell (default: the paper's
  /// fixed-latency model). The trace grid is backend-independent, so sweeps
  /// over `dram.backend` replay identical addresses per cell.
  mem::DramConfig dram;
  /// Workers of the sweep's task pool (resolve_thread_budget: 0 = hardware
  /// concurrency, 1 = serial on the calling thread). Each cell builds its
  /// own system, so results are bit-identical at any thread count.
  int threads = 0;
};

/// All metrics of one sweep cell.
struct SweepCell {
  SweepConfig config;
  std::int64_t range_bytes = 0;
  RunMetrics metrics;
};

struct SweepResult {
  std::vector<SweepConfig> configs;
  std::vector<std::int64_t> ranges;
  /// cells[r * configs.size() + c]
  std::vector<SweepCell> cells;

  [[nodiscard]] const SweepCell& cell(int range_index, int config_index) const;
};

/// Runs the full grid. Traces depend only on (seed, core, range), so every
/// configuration sees identical addresses.
[[nodiscard]] SweepResult run_sweep(const std::vector<SweepConfig>& configs,
                                    const SweepOptions& options);

/// Figure 7 rendering: one row per address range, one column per config
/// with the observed WCL in cycles, plus a final analytical-bound row.
[[nodiscard]] Table wcl_table(const SweepResult& result);

/// Figure 8 rendering: execution time (makespan cycles) per range/config.
[[nodiscard]] Table exec_time_table(const SweepResult& result);

/// Mean speedup of configuration `numerator` over `denominator` (ratios of
/// makespans averaged across ranges; ranges where either run failed to
/// complete are skipped). Mirrors the paper's "average speedup of X×".
[[nodiscard]] double mean_speedup(const SweepResult& result,
                                  const std::string& numerator,
                                  const std::string& denominator);

/// Result-store renderings of a sweep grid: observed WCL and makespan in
/// cycles (DNF -> null) and the analytical bounds. Every cell is exact and
/// must never drift.
[[nodiscard]] results::Series observed_wcl_series(const SweepResult& result);
[[nodiscard]] results::Series exec_time_series(const SweepResult& result);
[[nodiscard]] results::Series analytical_wcl_series(const SweepResult& result);

/// One row of mean speedups per (numerator, baseline) pair, as the paper's
/// "SS achieves an average speedup of X x" quotes.
[[nodiscard]] results::Series speedup_series(
    const SweepResult& result,
    const std::vector<std::pair<std::string, std::string>>& pairs);

}  // namespace psllc::sim

#endif  // PSLLC_SIM_EXPERIMENT_H_
