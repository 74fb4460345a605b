#include "sim/replay.h"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "common/assert.h"
#include "core/system.h"
#include "core/wcl_analysis.h"
#include "mem/memory_backend.h"

namespace psllc::sim {

namespace {

/// Checks `request` and returns core 0's steady and transient bounds (the
/// rest of the metrics empty): computed before the run, so a cell whose
/// bound is refused (ConfigError) throws without replaying anything.
[[nodiscard]] RunMetrics checked_bounds(const ReplayRequest& request) {
  PSLLC_ASSERT(request.setup != nullptr, "replay request needs a setup");
  const int num_cores = request.setup->config.num_cores;
  const ReplayWorkload& w = request.workload;
  PSLLC_CONFIG_CHECK((w.per_core != nullptr) != (w.shared != nullptr),
                     "replay workload must set exactly one of per_core/shared");
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
  RunMetrics metrics;
  metrics.analytical_wcl =
      core::analytical_wcl_cycles(*request.setup, CoreId{0});
  metrics.transient_analytical_wcl =
      core::transient_wcl_cycles(*request.setup, CoreId{0});
  return metrics;
}

/// Binds the lanes of `body` to `workload` (borrowed): one trace per core,
/// or one shared trace on cores [0, replicas), core c shifted by
/// c * window. Cores without a source stay empty.
template <typename Backend>
void bind_workload(core::SlotBody<Backend>& body,
                   const ReplayWorkload& workload) {
  for (int c = 0; c < body.num_lanes(); ++c) {
    if (workload.per_core != nullptr) {
      if (static_cast<std::size_t>(c) < workload.per_core->size()) {
        body.bind_lane(c, (*workload.per_core)[static_cast<std::size_t>(c)],
                       0);
      }
    } else if (c < workload.replicas) {
      body.bind_lane(c, *workload.shared,
                     workload.window * static_cast<Addr>(c));
    }
  }
}

/// `metrics` (checked_bounds') completed for a replay on `body` that ended
/// with `result` (`all_done` means every lane drained within the horizon).
template <typename Backend>
[[nodiscard]] RunMetrics fill_metrics(RunMetrics metrics,
                                      const core::SlotBody<Backend>& body,
                                      const core::RunResult& result) {
  metrics.completed = result.all_done;
  metrics.end_cycle = result.end_cycle;
  metrics.observed_transient_wcl = body.observed_transient_wcl();
  const core::RequestTracker& tracker = body.tracker();
  metrics.llc_requests = tracker.completed_requests();
  metrics.observed_wcl =
      tracker.completed_requests() > 0 ? tracker.max_service_latency() : 0;
  metrics.per_core_finish.reserve(static_cast<std::size_t>(body.num_lanes()));
  Cycle makespan = 0;
  for (int l = 0; l < body.num_lanes(); ++l) {
    metrics.per_core_finish.push_back(body.trace_done(l) ? body.finish_time(l)
                                                         : kNoCycle);
    metrics.per_core_l1_hits.push_back(body.caches(l).l1_hits());
    metrics.per_core_l2_hits.push_back(body.caches(l).l2_hits());
    metrics.per_core_misses.push_back(body.caches(l).misses());
    makespan = std::max(makespan, body.finish_time(l));
  }
  if (result.all_done) {
    metrics.makespan = makespan;
  }
  metrics.llc_stats = body.llc().stats();
  metrics.memory = body.memory().counters();
  metrics.dram_reads = metrics.memory.reads;
  metrics.dram_writes = metrics.memory.writes;
  return metrics;
}

template <typename Backend>
RunMetrics replay_on(const ReplayRequest& request, const RunMetrics& bounds) {
  core::BasicSystem<Backend> system(*request.setup);
  bind_workload(system.body(), request.workload);
  const core::RunResult result = system.run(request.options.max_cycles);
  return fill_metrics(bounds, system.body(), result);
}

}  // namespace

ReplayResult replay(const ReplayRequest& request) {
  const RunMetrics bounds = checked_bounds(request);
  switch (request.setup->config.dram.backend) {
    case mem::MemoryBackendKind::kFixedLatency:
      return {replay_on<mem::FixedLatencyBackend>(request, bounds)};
    case mem::MemoryBackendKind::kBankRow:
      return {replay_on<mem::BankRowBackend>(request, bounds)};
    case mem::MemoryBackendKind::kWriteQueue:
      return {replay_on<mem::WriteQueueBackend>(request, bounds)};
  }
  PSLLC_ASSERT(false, "unknown memory backend kind "
                          << static_cast<int>(request.setup->config.dram.backend));
  return {};
}

ReplayResult replay_every_slot(const ReplayRequest& request) {
  const RunMetrics bounds = checked_bounds(request);
  core::System system(*request.setup);
  bind_workload(system.body(), request.workload);
  const Cycle W = request.setup->config.slot_width;
  const Cycle max_cycles = request.options.max_cycles;
  const core::RunResult result =
      system.run_slots(max_cycles > 0 ? (max_cycles + W - 1) / W : 0);
  return {fill_metrics(bounds, system.body(), result)};
}

}  // namespace psllc::sim
