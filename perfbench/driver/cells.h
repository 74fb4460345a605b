// What the benchmark checks and counts per replayed cell: the correctness
// digest over every RunMetrics field, the per-cell bound checks, the exact
// per-layer counters, and the isolated private-cache / trace-file probes.
#ifndef PERFBENCH_CELLS_H_
#define PERFBENCH_CELLS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/mem_op.h"
#include "mem/private_cache.h"
#include "sim/runner.h"
#include "tracing.h"

namespace perfbench {

/// Every cell of one pass over a workload, in the workload's fixed cell
/// order. Passes through the library's grid entry points fill `cells`
/// only; traced passes (the benchmark drives each cell itself) also fill
/// the per-cell slot widths, the engine flags and the batch busy time.
struct Pass {
  std::vector<psllc::sim::RunMetrics> cells;
  std::vector<psllc::Cycle> slot_widths;
  std::vector<std::uint8_t> used_kernel;
  double busy_seconds = 0;  ///< sum of JobOutcome::seconds
  double batch_wall_seconds = 0;
};

/// FNV-1a 64 fold of every RunMetrics field of every cell, in cell order.
[[nodiscard]] std::uint64_t digest(
    const std::vector<psllc::sim::RunMetrics>& cells);
[[nodiscard]] std::string hex(std::uint64_t value);

/// A cell passes when it completed and its observed latencies stay within
/// the steady and transient analytical bounds.
[[nodiscard]] bool cell_ok(const psllc::sim::RunMetrics& m);

/// The exact simulated per-layer counters of a traced pass.
struct LayerCounts {
  std::int64_t l1_hits = 0;
  std::int64_t l2_hits = 0;
  std::int64_t misses = 0;
  std::int64_t backend_reads = 0;
  std::int64_t backend_writes = 0;
  std::int64_t write_stalls = 0;
  std::int64_t max_queue_depth = 0;
  std::int64_t slots = 0;
  std::int64_t presentations = 0;  ///< hits + fills + blocked
  std::int64_t writebacks = 0;     ///< voluntary + freeing
  std::int64_t llc_requests = 0;
  std::int64_t blocked = 0;
  std::int64_t evictions = 0;
  std::int64_t freeing_writebacks = 0;
  std::int64_t voluntary_writebacks = 0;
  std::int64_t steals = 0;
  std::int64_t repartitions = 0;
  std::int64_t drain_writebacks = 0;
};
[[nodiscard]] LayerCounts count_layers(const Pass& pass);

/// Streams `trace` through a fresh private hierarchy (access, fill on a
/// miss) under a "mem.private" span whose work is the access count.
void probe_private(const psllc::core::Trace& trace,
                   const psllc::mem::PrivateCacheConfig& config,
                   std::uint64_t seed, Tracer& tracer, std::int64_t cell);

/// Loads `path` (a .pslt file) through sim::read_trace_file under a
/// "trace.load" span and returns the trace.
psllc::core::Trace load_traced(const std::string& path, Tracer* tracer,
                               std::int64_t cell, std::uint64_t parent = 0);

/// Decodes `path` through trace::MappedTrace::decode_batch in
/// replay-kernel-sized chunks under a "trace.decode" span.
void probe_decode(const std::string& path, Tracer& tracer, std::int64_t cell);

}  // namespace perfbench

#endif  // PERFBENCH_CELLS_H_
