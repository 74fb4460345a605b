#include "sim/replay.h"

#include <limits>

#include "common/assert.h"
#include "core/system.h"
#include "sim/kernel.h"

namespace psllc::sim {

namespace {

void validate_request(const ReplayRequest& request) {
  PSLLC_ASSERT(request.setup != nullptr, "replay request needs a setup");
  const int num_cores = request.setup->config.num_cores;
  const ReplayWorkload& w = request.workload;
  const int sources = (w.per_core != nullptr ? 1 : 0) +
                      (w.shared != nullptr ? 1 : 0) +
                      (w.shared_view != nullptr ? 1 : 0);
  PSLLC_CONFIG_CHECK(
      sources == 1,
      "replay workload must set exactly one of per_core/shared/shared_view ("
          << sources << " set)");
  if (w.per_core != nullptr) {
    PSLLC_CONFIG_CHECK(
        static_cast<int>(w.per_core->size()) <= num_cores,
        "more traces (" << w.per_core->size() << ") than cores (" << num_cores
                        << ")");
  } else {
    PSLLC_CONFIG_CHECK(w.replicas >= 1 && w.replicas <= num_cores,
                       "replay replicas (" << w.replicas << ") must be in [1, "
                                           << num_cores << "]");
    if (w.replicas > 1) {
      // Half the address space headroom keeps line math overflow-free for
      // every shifted replica (mirrors the old corpus replay_traces check).
      const Addr safe_window = (std::numeric_limits<Addr>::max() / 2) /
                               static_cast<Addr>(w.replicas - 1);
      PSLLC_CONFIG_CHECK(w.window <= safe_window,
                         "replay window 0x"
                             << std::hex << w.window << " overflows across "
                             << std::dec << w.replicas << " replicas");
    }
  }
}

/// The reference engine: core::System steps every slot of the same body
/// the kernel drives, reading the workload through the same lane cursors.
RunMetrics run_legacy(const ReplayRequest& request) {
  core::System system(*request.setup);
  bind_workload(system.body(), request.workload);
  const core::RunResult result = system.run(request.options.max_cycles);
  return fill_metrics(system.body(), *request.setup, result.all_done,
                      result.end_cycle);
}

}  // namespace

ReplayResult replay(const ReplayRequest& request) {
  validate_request(request);
  if (request.engine == ReplayEngine::kLegacy) {
    return {run_legacy(request)};
  }
  return {run_kernel(request)};
}

}  // namespace psllc::sim
