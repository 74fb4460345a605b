// The full multicore system model of the paper's Figure 1: N trace-driven
// cores (L1I/L1D + L2 each), a TDM-arbitrated shared bus, the partitioned
// inclusive LLC, and DRAM behind it.
//
// System is the step-every-slot driver over core::SlotBody
// (core/slot_body.h), which holds the model's state and slot semantics. It
// owns the memory backend and the traces, executes one TDM slot per
// step_slot() and feeds every slot's SlotEvent to the registered
// observers. It is also the reference the replay kernel is checked against
// (sim::ReplayEngine::kLegacy).
#ifndef PSLLC_CORE_SYSTEM_H_
#define PSLLC_CORE_SYSTEM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bus/pending_buffers.h"
#include "bus/tdm_schedule.h"
#include "core/request_tracker.h"
#include "core/slot_body.h"
#include "core/system_config.h"
#include "llc/llc.h"
#include "mem/memory_backend.h"
#include "mem/private_cache.h"

namespace psllc::core {

struct RunResult {
  bool all_done = false;
  Cycle end_cycle = 0;
  std::int64_t slots_executed = 0;
};

class System {
 public:
  System(const SystemConfig& config, llc::PartitionMap partitions);
  System(const SystemConfig& config, llc::PartitionProgram program);
  explicit System(const ExperimentSetup& setup);

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Assigns `trace` to `core` (before or between runs). Must not be
  /// called while the core has a request outstanding.
  void set_trace(CoreId core, Trace trace);

  /// Scenario setup: `line` resident in the LLC and privately cached by
  /// `owner` (`dirty_private` marks the private copy dirty). Mirrors the
  /// paper's "l1 : c3" initial states.
  void preload_owned_line(CoreId owner, LineAddr line,
                          bool dirty_private = false);

  /// Scenario setup: `line` resident in the LLC only (no private copies).
  /// Mapped through `perspective`'s partition.
  void preload_llc_line(CoreId perspective, LineAddr line, bool dirty);

  /// Executes one TDM slot.
  void step_slot();

  /// Runs until every trace finished and all buffers drained, or
  /// `max_cycles` elapsed.
  RunResult run(Cycle max_cycles);
  RunResult run_slots(std::int64_t max_slots);

  [[nodiscard]] bool all_done() const;
  [[nodiscard]] Cycle now() const { return slot_index_ * config_.slot_width; }
  [[nodiscard]] std::int64_t current_slot() const { return slot_index_; }

  /// Max trace finish time across cores — the execution-time metric of the
  /// paper's Figure 8.
  [[nodiscard]] Cycle makespan() const;

  // Per-core state; each accessor asserts that `core` is a valid id.
  [[nodiscard]] const mem::PrivateCacheHierarchy& caches(CoreId core) const {
    return body_.caches(lane(core));
  }
  [[nodiscard]] const bus::PendingBuffers& buffers(CoreId core) const {
    return body_.buffers(lane(core));
  }
  /// Waiting for the response to its outstanding LLC request.
  [[nodiscard]] bool blocked(CoreId core) const {
    return body_.blocked(lane(core));
  }
  /// All trace entries completed (bus queues may still drain).
  [[nodiscard]] bool trace_done(CoreId core) const {
    return body_.trace_done(lane(core));
  }
  /// Cycle at which the last trace entry completed (valid once trace_done).
  [[nodiscard]] Cycle finish_time(CoreId core) const {
    return body_.finish_time(lane(core));
  }
  [[nodiscard]] std::uint64_t ops_completed(CoreId core) const {
    return body_.ops_completed(lane(core));
  }

  [[nodiscard]] const llc::PartitionedLlc& llc() const { return body_.llc(); }
  [[nodiscard]] llc::PartitionedLlc& llc_mut() { return body_.llc_mut(); }
  [[nodiscard]] const RequestTracker& tracker() const {
    return body_.tracker();
  }
  [[nodiscard]] const bus::TdmSchedule& schedule() const {
    return body_.schedule();
  }
  [[nodiscard]] const SystemConfig& config() const { return config_; }
  /// Read-only query view of the memory backend behind the LLC (selected
  /// by config().dram.backend; owned by this System — see
  /// mem/memory_backend.h for the WCL contract). Only the query surface is
  /// exposed; driving the backend stays with the slot body.
  [[nodiscard]] mem::MemoryView memory() const {
    return mem::MemoryView(*memory_);
  }
  /// The slot body this System drives. Lanes bound through it directly
  /// borrow their traces (see SlotBody::bind_lane).
  [[nodiscard]] SlotBody<mem::MemoryBackend>& body() { return body_; }

  /// Registers a per-slot observer (called after the slot's bus action).
  void add_slot_observer(std::function<void(const SlotEvent&)> observer);

  /// Voluntary write-backs cancelled because the core re-fetched the line
  /// while they were still queued (dirtiness folded back into the refill).
  [[nodiscard]] std::int64_t writebacks_cancelled() const {
    return body_.writebacks_cancelled();
  }

  /// Max observed service latency over requests whose in-flight interval
  /// overlapped a partition-mode transition window. kNoCycle when no
  /// request overlapped a transition (or the program is static).
  [[nodiscard]] Cycle observed_transient_wcl() const {
    return body_.observed_transient_wcl();
  }

 private:
  /// `core`'s lane index; asserts the id is valid.
  [[nodiscard]] int lane(CoreId core) const;

  SystemConfig config_;
  std::unique_ptr<mem::MemoryBackend> memory_;
  SlotBody<mem::MemoryBackend> body_;
  std::vector<Trace> traces_;  ///< per core; the body's lanes borrow them
  std::int64_t slot_index_ = 0;
  std::vector<std::function<void(const SlotEvent&)>> observers_;
};

}  // namespace psllc::core

#endif  // PSLLC_CORE_SYSTEM_H_
