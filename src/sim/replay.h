// The one replay entry point every cell-shaped run goes through.
//
// The sweep grid (run_cell), the shard protocol (cell jobs), and the corpus
// runner all describe their work as a ReplayRequest and call replay(). It
// builds one core::BasicSystem on the concrete memory backend the cell
// selects (core/system.h), binds the workload to its lanes and runs the
// system's skip search, which executes only the slots that carry a bus
// action. replay_every_slot() replays the same request stepping every slot:
// the reference the search is checked against, with bit-identical
// RunMetrics, request records and trace logs.
#ifndef PSLLC_SIM_REPLAY_H_
#define PSLLC_SIM_REPLAY_H_

#include <vector>

#include "core/system_config.h"
#include "sim/runner.h"

namespace psllc::sim {

/// What each core replays. Exactly one source must be set:
///  * per_core — one trace per core (sweep cells), padded with idle cores;
///  * shared — one trace replayed on cores [0, replicas) with per-core
///    address offset c * window (corpus solo/mirrored replay).
/// Both pointers are borrowed; they must outlive the replay() call.
struct ReplayWorkload {
  const std::vector<core::Trace>* per_core = nullptr;
  const core::Trace* shared = nullptr;
  int replicas = 1;  ///< cores replaying the shared trace
  Addr window = 0;   ///< per-replica address shift (0 = overlapped)
};

/// One cell of replay work: a system shape, a workload, and run options.
struct ReplayRequest {
  const core::ExperimentSetup* setup = nullptr;  ///< borrowed, required
  ReplayWorkload workload;
  RunOptions options;
};

struct ReplayResult {
  RunMetrics metrics;
};

/// Replays the cell, skipping idle slots.
[[nodiscard]] ReplayResult replay(const ReplayRequest& request);

/// Replays the cell stepping every slot up to the horizon — the reference
/// replay() is checked against (bit-identical metrics; see the
/// differential battery in tests/test_kernel.cc).
[[nodiscard]] ReplayResult replay_every_slot(const ReplayRequest& request);

}  // namespace psllc::sim

#endif  // PSLLC_SIM_REPLAY_H_
