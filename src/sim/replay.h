// The one replay entry point every cell-shaped run goes through.
//
// The sweep grid (run_cell), the shard protocol (cell jobs), and the corpus
// runner all describe their work as a ReplayRequest and call replay(). Both
// engines run the one slot body (core/slot_body.h): the replay kernel
// (sim/kernel.h, the default) executes only the slots that carry a bus
// action, the legacy engine (core::System) executes every slot. They
// produce bit-identical RunMetrics, request records and trace logs; the
// legacy engine is kept as the reference the kernel is checked against.
#ifndef PSLLC_SIM_REPLAY_H_
#define PSLLC_SIM_REPLAY_H_

#include <cstdint>
#include <vector>

#include "core/system_config.h"
#include "sim/runner.h"
#include "trace/mapped_trace.h"

namespace psllc::sim {

/// Which driver replays the cell.
enum class ReplayEngine : std::uint8_t {
  kKernel,  ///< the event-driven skip driver (the default)
  kLegacy,  ///< core::System, stepping every slot (the reference)
};

/// What each core replays. Exactly one source must be set:
///  * per_core — one trace per core (sweep cells), padded with idle cores;
///  * shared — one materialized trace replayed on cores [0, replicas) with
///    per-core address offset c * window (corpus solo/mirrored replay);
///  * shared_view — as `shared`, but decoded straight off a mapped .pslt
///    view in batches, with the offset applied at decode time (no
///    materialized copies).
/// All pointers are borrowed; they must outlive the replay() call.
struct ReplayWorkload {
  const std::vector<core::Trace>* per_core = nullptr;
  const core::Trace* shared = nullptr;
  const trace::MappedTrace* shared_view = nullptr;
  int replicas = 1;  ///< cores replaying a shared source
  Addr window = 0;   ///< per-replica address shift (0 = overlapped)
};

/// One cell of replay work: a system shape, a workload, and run options.
struct ReplayRequest {
  const core::ExperimentSetup* setup = nullptr;  ///< borrowed, required
  ReplayWorkload workload;
  RunOptions options;
  ReplayEngine engine = ReplayEngine::kKernel;
};

struct ReplayResult {
  RunMetrics metrics;
};

/// Replays the cell on `request.engine`. The metrics are bit-identical
/// between engines (checked by the differential battery in
/// tests/test_kernel.cc and by the golden gates).
[[nodiscard]] ReplayResult replay(const ReplayRequest& request);

}  // namespace psllc::sim

#endif  // PSLLC_SIM_REPLAY_H_
