// The one replay entry point every cell-shaped run goes through.
//
// The sweep grid (run_cell), the shard protocol (cell jobs), and the corpus
// runner used to carry three near-identical "build traces, build a System,
// run, collect metrics" code paths. They now all describe the work as a
// ReplayRequest and call replay(), which routes the cell either through the
// tight struct-of-arrays replay kernel (sim/kernel.h) or through the legacy
// core::System slot loop. Both engines are required to produce bit-identical
// RunMetrics; the kernel is an optimization, never a semantic fork.
#ifndef PSLLC_SIM_REPLAY_H_
#define PSLLC_SIM_REPLAY_H_

#include <cstdint>
#include <vector>

#include "core/system_config.h"
#include "sim/runner.h"
#include "trace/mapped_trace.h"

namespace psllc::sim {

/// Which engine replays the cell.
enum class ReplayEngine : std::uint8_t {
  kAuto,    ///< kernel when eligible, legacy otherwise (the default)
  kKernel,  ///< force the kernel (throws if the request is not eligible)
  kLegacy,  ///< force the legacy core::System slot loop
};

[[nodiscard]] constexpr const char* to_string(ReplayEngine e) {
  switch (e) {
    case ReplayEngine::kAuto: return "auto";
    case ReplayEngine::kKernel: return "kernel";
    case ReplayEngine::kLegacy: return "legacy";
  }
  return "?";
}

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
  ReplayEngine engine = ReplayEngine::kAuto;
};

struct ReplayResult {
  RunMetrics metrics;
  bool used_kernel = false;  ///< which engine actually ran
};

/// True when `request` can take the kernel fast path. The kernel refuses
/// cells that need legacy-only observability: keep_request_records (record
/// ids depend on the legacy slot-by-slot presentation order) and debug/trace
/// logging (the kernel skips idle slots, so it cannot reproduce the legacy
/// per-slot log stream).
[[nodiscard]] bool kernel_eligible(const ReplayRequest& request);

/// Replays the cell. Engine choice per `request.engine`; the returned
/// metrics are bit-identical between engines by contract (enforced by the
/// differential battery in tests/test_kernel.cc and the golden gates).
[[nodiscard]] ReplayResult replay(const ReplayRequest& request);

}  // namespace psllc::sim

#endif  // PSLLC_SIM_REPLAY_H_
