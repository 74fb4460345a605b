#include "sim/runner.h"

#include "sim/replay.h"

namespace psllc::sim {

RunMetrics run_experiment(const core::ExperimentSetup& setup,
                          const std::vector<core::Trace>& traces,
                          const RunOptions& options) {
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  request.options = options;
  return replay(request).metrics;
}

}  // namespace psllc::sim
