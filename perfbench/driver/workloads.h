// The benchmark's three workloads. Each generates its inputs from the
// benchmark seed, runs whole passes through the library's public grid
// entry points (the timed, untraced path), and can re-drive the same cells
// one library call at a time with spans around each call (the traced
// path), which must reproduce the untraced pass bit for bit.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cells.h"
#include "tracing.h"

namespace perfbench {

struct WorkloadOptions {
  std::uint64_t seed = 1;
  std::string work_dir;  ///< working directory for generated .pslt files
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Generates the inputs (traces, .pslt files, corpus scan). Timed as
  /// set-up and repeated; every call leaves the same inputs behind.
  virtual void setup(Tracer* tracer) = 0;
  /// Simulated trace ops one pass replays: the sum over cells of ops per
  /// core times replaying cores. Valid after setup().
  [[nodiscard]] virtual std::int64_t ops_per_pass() const = 0;
  /// One pass through the library's grid entry points.
  [[nodiscard]] virtual Pass run(int workers) = 0;
  /// One pass with the benchmark driving each cell, scheduled with the
  /// same job granularity as the grid entry point. Valid after run().
  [[nodiscard]] virtual Pass run_traced(int workers, Tracer& tracer) = 0;
  /// Isolated per-layer probes over the cells' streams and trace files.
  virtual void probe(Tracer& tracer) = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, const WorkloadOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
