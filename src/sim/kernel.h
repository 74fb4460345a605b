// The replay kernel: the default driver behind sim::replay().
//
// Both replay engines run the one slot body, core::SlotBody
// (core/slot_body.h); they differ only in which slots they visit. The
// reference driver, core::System, executes every TDM slot. The kernel
// searches for the next slot that carries a bus action: it computes the
// exact next slot in which a buffered PRB/PWB message becomes
// pick-eligible, or in which a still-running lane could at the earliest
// enqueue one, runs lanes forward only as far as the no-overshoot bound
// allows, and executes that slot through the body. It then steps the
// following slots directly, as core::System does, while they stay busy,
// and returns to the search after the first idle one. Idle slots between
// busy stretches are skipped outright. The kernel's own state — a TDM
// next-owned-slot table and a per-lane lower-bound cache keyed on the
// body's lane versions — never feeds back into the model.
//
// The memory backend is selected once per cell and the body is
// instantiated on the concrete `final` backend, so DRAM service calls
// devirtualize and inline.
#ifndef PSLLC_SIM_KERNEL_H_
#define PSLLC_SIM_KERNEL_H_

#include <algorithm>

#include "core/slot_body.h"
#include "core/wcl_analysis.h"
#include "sim/replay.h"

namespace psllc::sim {

/// Binds the lanes of `body` to `workload` (borrowed): one trace per core,
/// or one shared source on cores [0, replicas), core c shifted by
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
      const Addr offset = workload.window * static_cast<Addr>(c);
      if (workload.shared != nullptr) {
        body.bind_lane(c, *workload.shared, offset);
      } else {
        body.bind_lane(c, *workload.shared_view, offset);
      }
    }
  }
}

/// The metrics of a replay of `setup` on `body` that ended at `end_cycle`;
/// `completed` means every lane drained within the horizon.
template <typename Backend>
[[nodiscard]] RunMetrics fill_metrics(const core::SlotBody<Backend>& body,
                                      const core::ExperimentSetup& setup,
                                      bool completed, Cycle end_cycle) {
  RunMetrics metrics;
  metrics.completed = completed;
  metrics.end_cycle = end_cycle;
  metrics.analytical_wcl = core::analytical_wcl_cycles(setup, CoreId{0});
  metrics.transient_analytical_wcl =
      core::transient_wcl_cycles(setup, CoreId{0});
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
  if (completed) {
    metrics.makespan = makespan;
  }
  metrics.llc_stats = body.llc().stats();
  metrics.memory = body.memory().counters();
  metrics.dram_reads = metrics.memory.reads;
  metrics.dram_writes = metrics.memory.writes;
  return metrics;
}

/// Replays `request` with the kernel's skip driver.
[[nodiscard]] RunMetrics run_kernel(const ReplayRequest& request);

}  // namespace psllc::sim

#endif  // PSLLC_SIM_KERNEL_H_
