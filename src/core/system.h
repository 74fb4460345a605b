// The full multicore system model of the paper's Figure 1: N trace-driven
// cores (L1I/L1D + L2 each), a TDM-arbitrated shared bus, the partitioned
// inclusive LLC, and DRAM behind it.
//
// BasicSystem is the one driver over core::SlotBody (core/slot_body.h),
// which holds the model's state and slot semantics. It owns the memory
// backend, the body, the traces and the observers, and decides which slots
// to execute:
//  * step_slot() / run_slots() execute every TDM slot and feed each slot's
//    SlotEvent to the registered observers;
//  * run() searches for the next slot that carries a bus action: it
//    computes the exact next slot in which a buffered PRB/PWB message
//    becomes pick-eligible, or in which a still-running lane could at the
//    earliest enqueue one, runs lanes forward only as far as the
//    no-overshoot bound allows, and executes that slot. It then steps the
//    following slots directly while they stay busy, and returns to the
//    search after the first idle one. Idle slots between busy stretches
//    are skipped outright, which is sound because an idle slot changes no
//    state. With any observer registered, run() steps every slot instead:
//    observers are promised every slot's event.
// The search state — a TDM next-owned-slot table and a per-lane
// lower-bound cache keyed on the body's lane versions — never feeds back
// into the model, so run() and run_slots() agree bit for bit
// (tests/test_kernel.cc, tests/test_system.cc).
//
// The class is a template over the memory backend. `System` dispatches
// DRAM calls virtually; sim::replay() instantiates it on the concrete
// `final` backend the cell selects, so DRAM service calls devirtualize and
// inline. system.cc instantiates all four.
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

template <typename Backend>
class BasicSystem {
 public:
  BasicSystem(const SystemConfig& config, llc::PartitionMap partitions);
  BasicSystem(const SystemConfig& config, llc::PartitionProgram program);
  explicit BasicSystem(const ExperimentSetup& setup);

  BasicSystem(const BasicSystem&) = delete;
  BasicSystem& operator=(const BasicSystem&) = delete;

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
  /// `max_cycles` elapsed, resuming at current_slot(). Skips idle slots
  /// unless an observer is registered; the outcome is that of stepping
  /// every slot either way.
  RunResult run(Cycle max_cycles);
  /// Steps at most `max_slots` slots, every one, stopping once all done.
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

  [[nodiscard]] const llc::BasicPartitionedLlc<Backend>& llc() const {
    return body_.llc();
  }
  [[nodiscard]] llc::BasicPartitionedLlc<Backend>& llc_mut() {
    return body_.llc_mut();
  }
  [[nodiscard]] const RequestTracker& tracker() const {
    return body_.tracker();
  }
  [[nodiscard]] const bus::TdmSchedule& schedule() const {
    return body_.schedule();
  }
  [[nodiscard]] const SystemConfig& config() const { return config_; }
  /// Read-only query view of the memory backend behind the LLC (selected
  /// by config().dram.backend; owned by this system — see
  /// mem/memory_backend.h for the WCL contract). Only the query surface is
  /// exposed; driving the backend stays with the slot body.
  [[nodiscard]] mem::MemoryView memory() const {
    return mem::MemoryView(*memory_);
  }
  /// The slot body this system drives. Lanes bound through it directly
  /// borrow their traces (see SlotBody::bind_lane).
  [[nodiscard]] SlotBody<Backend>& body() { return body_; }

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

  /// run()'s skip search from slot_index_ up to (excluding) slot `horizon`;
  /// leaves slot_index_ where stepping every slot would have stopped.
  void search(std::int64_t horizon);
  /// First slot >= `cur_slot` owned by lane `l` whose start is at or after
  /// `enqueued_at` — the exact slot in which the message becomes
  /// pick-eligible.
  [[nodiscard]] std::int64_t message_slot(int l, Cycle enqueued_at,
                                          std::int64_t cur_slot) const;
  /// The slot at whose start a driver stepping every slot first sees every
  /// lane drained, given the last slot executed; kNoSlot while a lane still
  /// has work.
  [[nodiscard]] std::int64_t exit_slot(std::int64_t last_action_slot) const;

  SystemConfig config_;
  std::unique_ptr<Backend> memory_;
  SlotBody<Backend> body_;
  std::vector<Trace> traces_;  ///< per core; the body's lanes borrow them
  std::int64_t slot_index_ = 0;
  std::vector<std::function<void(const SlotEvent&)>> observers_;

  // Hot-path TDM geometry: delta to the next slot owned by a core, indexed
  // by core * period + (slot % period). Built once in the constructor.
  std::int64_t period_ = 0;
  std::vector<std::int64_t> next_owned_delta_;

  // Per-lane lower bound on the slot of the lane's next LLC request,
  // valid while the lane's body version equals lb_version_.
  std::vector<std::int64_t> lb_;
  std::vector<std::uint64_t> lb_version_;
};

using System = BasicSystem<mem::MemoryBackend>;

}  // namespace psllc::core

#endif  // PSLLC_CORE_SYSTEM_H_
