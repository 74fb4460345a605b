#include "core/system.h"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/assert.h"

namespace psllc::core {

namespace {

constexpr std::int64_t kNoSlot = std::numeric_limits<std::int64_t>::max();

/// Initial lower-bound cache key: no lane version ever equals it.
constexpr std::uint64_t kStale = std::numeric_limits<std::uint64_t>::max();

/// First slot index whose start cycle is >= `t` (slot k spans
/// [k*W, (k+1)*W)). Messages enqueued at `t` are pick-eligible from the
/// first slot start at or after `t`.
[[nodiscard]] std::int64_t first_slot_at_or_after(Cycle t, Cycle slot_width) {
  return t > 0 ? (t + slot_width - 1) / slot_width : 0;
}

template <typename Backend>
[[nodiscard]] std::unique_ptr<Backend> make_backend(
    const mem::DramConfig& dram) {
  if constexpr (std::is_same_v<Backend, mem::MemoryBackend>) {
    return dram.make_backend();
  } else {
    return std::make_unique<Backend>(dram);
  }
}

}  // namespace

template <typename Backend>
BasicSystem<Backend>::BasicSystem(const SystemConfig& config,
                                  llc::PartitionMap partitions)
    : BasicSystem(config, llc::PartitionProgram(std::move(partitions))) {}

template <typename Backend>
BasicSystem<Backend>::BasicSystem(const SystemConfig& config,
                                  llc::PartitionProgram program)
    : config_(config),
      memory_(make_backend<Backend>(config_.dram)),
      body_(config_, std::move(program), *memory_) {
  const std::size_t count = static_cast<std::size_t>(config_.num_cores);
  traces_.resize(count);
  // Dense (core, phase) -> slots-until-next-owned table so the search's
  // message_slot costs one modulo instead of TdmSchedule's
  // scan-with-modulo over the period. Every core owns at least one slot
  // per period (validated by the schedule builders), so the scan below
  // terminates within one period.
  const bus::TdmSchedule& schedule = body_.schedule();
  period_ = static_cast<std::int64_t>(schedule.slots_per_period());
  next_owned_delta_.assign(count * static_cast<std::size_t>(period_), 0);
  for (int c = 0; c < config_.num_cores; ++c) {
    for (std::int64_t p = 0; p < period_; ++p) {
      std::int64_t d = 0;
      while (schedule.owner_of_slot(p + d).value != c) {
        ++d;
      }
      next_owned_delta_[static_cast<std::size_t>(c * period_ + p)] = d;
    }
  }
  lb_.assign(count, 0);
  lb_version_.assign(count, kStale);
}

template <typename Backend>
BasicSystem<Backend>::BasicSystem(const ExperimentSetup& setup)
    : BasicSystem(setup.config, setup.program) {}

template <typename Backend>
int BasicSystem<Backend>::lane(CoreId core) const {
  PSLLC_ASSERT(core.valid() && core.value < config_.num_cores,
               "bad core id " << core.value);
  return core.value;
}

template <typename Backend>
void BasicSystem<Backend>::set_trace(CoreId core, Trace trace) {
  const int l = lane(core);
  PSLLC_ASSERT(!body_.blocked(l),
               "cannot swap trace while a request is outstanding");
  Trace& owned = traces_[static_cast<std::size_t>(l)];
  owned = std::move(trace);
  body_.bind_lane(l, owned, 0);
}

template <typename Backend>
void BasicSystem<Backend>::preload_owned_line(CoreId owner, LineAddr line,
                                              bool dirty_private) {
  body_.preload_owned_line(CoreId{lane(owner)}, line, dirty_private);
}

template <typename Backend>
void BasicSystem<Backend>::preload_llc_line(CoreId perspective, LineAddr line,
                                            bool dirty) {
  PSLLC_ASSERT(llc().partitions().partition_of(perspective) >= 0,
               "perspective core has no partition");
  body_.llc_mut().preload(line, {}, dirty);
}

template <typename Backend>
void BasicSystem<Backend>::step_slot() {
  const SlotEvent event = body_.execute_slot(slot_index_);
  for (const auto& observer : observers_) {
    observer(event);
  }
  ++slot_index_;
}

template <typename Backend>
bool BasicSystem<Backend>::all_done() const {
  for (int l = 0; l < config_.num_cores; ++l) {
    if (!body_.drained(l)) {
      return false;
    }
  }
  return true;
}

template <typename Backend>
Cycle BasicSystem<Backend>::makespan() const {
  Cycle makespan = 0;
  for (int l = 0; l < config_.num_cores; ++l) {
    PSLLC_ASSERT(body_.trace_done(l),
                 to_string(CoreId{l}) << " has not finished its trace");
    makespan = std::max(makespan, body_.finish_time(l));
  }
  return makespan;
}

template <typename Backend>
RunResult BasicSystem<Backend>::run(Cycle max_cycles) {
  const Cycle W = config_.slot_width;
  const std::int64_t horizon = max_cycles > 0 ? (max_cycles + W - 1) / W : 0;
  if (!observers_.empty()) {
    return run_slots(horizon - slot_index_);
  }
  search(horizon);
  return RunResult{all_done(), now(), slot_index_};
}

template <typename Backend>
RunResult BasicSystem<Backend>::run_slots(std::int64_t max_slots) {
  const std::int64_t limit = slot_index_ + max_slots;
  while (!all_done() && slot_index_ < limit) {
    step_slot();
  }
  return RunResult{all_done(), now(), slot_index_};
}

template <typename Backend>
void BasicSystem<Backend>::add_slot_observer(
    std::function<void(const SlotEvent&)> observer) {
  observers_.push_back(std::move(observer));
}

template <typename Backend>
void BasicSystem<Backend>::search(std::int64_t horizon) {
  if (slot_index_ >= horizon) {
    return;
  }
  const Cycle W = config_.slot_width;
  const int n = body_.num_lanes();
  const auto& llc = body_.llc();
  std::int64_t cur_slot = slot_index_;
  std::int64_t last_action_slot = slot_index_ - 1;
  // Deepest advance_lane limit a driver stepping every slot ever issues:
  // the start of the last slot inside the horizon. Lanes must never run
  // past it.
  const Cycle deepest = (horizon - 1) * W;
  for (;;) {
    // 0. Partition-mode transitions pin slots the idle-skip must not jump:
    //    while a transition drains, every slot pumps it, and the first slot
    //    at or after the next trigger epoch is where the mode switch fires.
    //    `fslot` is the earliest such pinned slot (kNoSlot for static
    //    programs).
    std::int64_t fslot = kNoSlot;
    if (llc.transition_active()) {
      fslot = cur_slot;
    } else {
      const Cycle epoch = llc.next_transition_epoch();
      if (epoch != kNoCycle) {
        fslot = std::max(cur_slot, first_slot_at_or_after(epoch, W));
      }
    }
    // 1. Earliest slot in which an already-buffered PRB/PWB message is
    //    pick-eligible (exact: enqueue times and slot ownership are both
    //    known).
    std::int64_t action = kNoSlot;
    for (int l = 0; l < n; ++l) {
      const bus::PendingBuffers& buf = body_.buffers(l);
      const bool has_request = buf.has_request();
      const bool has_writeback = buf.has_writeback();
      if (!has_request && !has_writeback) {
        continue;
      }
      Cycle earliest = std::numeric_limits<Cycle>::max();
      if (has_request) {
        earliest = buf.request().enqueued_at;
      }
      if (has_writeback) {
        earliest = std::min(earliest, buf.front_writeback().enqueued_at);
      }
      action = std::min(action, message_slot(l, earliest, cur_slot));
    }
    // 2. Refinement: a still-running lane could enqueue a miss that lands
    //    in an earlier slot than `action`. Run the lane with the smallest
    //    possible miss slot forward — never past the runner-up bound, so no
    //    lane ever overshoots the slot that ends up being executed — until
    //    every unblocked lane provably cannot act before `action` (or the
    //    horizon).
    for (;;) {
      // Lanes must never run past a pinned transition slot either: its
      // back-invalidations may evict private lines the lane would
      // otherwise keep hitting.
      const std::int64_t bound = std::min(std::min(action, horizon), fslot);
      std::int64_t best = kNoSlot;
      std::int64_t second = kNoSlot;
      int best_lane = -1;
      for (int l = 0; l < n; ++l) {
        if (!body_.runnable(l)) {
          continue;
        }
        // A cached bound stays exact until the lane's replay state changes
        // (its version moves) or cur_slot overtakes it: for cur' >= cur
        // with lb >= cur', no slot of the lane exists in [cur, lb), hence
        // none in [cur', lb) either. Even a miss waits for the lane's ready
        // time, pending gap and tag walks, and every hit before it only
        // pushes it later.
        const std::size_t s = static_cast<std::size_t>(l);
        if (lb_version_[s] != body_.version(l) || lb_[s] < cur_slot) {
          lb_[s] = message_slot(l, body_.earliest_miss_issue(l), cur_slot);
          lb_version_[s] = body_.version(l);
        }
        const std::int64_t slot = lb_[s];
        if (slot < best) {
          second = best;
          best = slot;
          best_lane = l;
        } else if (slot < second) {
          second = slot;
        }
      }
      if (best_lane < 0 || best >= bound) {
        break;
      }
      const std::int64_t limit_slot = std::min(bound, second);
      const Cycle limit = limit_slot >= horizon ? deepest : limit_slot * W;
      body_.advance_lane(best_lane, limit);
      if (body_.blocked(best_lane)) {
        const Cycle enq = body_.buffers(best_lane).request().enqueued_at;
        action = std::min(action, message_slot(best_lane, enq, cur_slot));
      }
    }
    if (std::min(action, fslot) >= horizon) {
      break;
    }
    if (fslot < action) {
      // 2b. A pinned transition slot precedes the next bus action. Execute
      // it only if a driver stepping every slot would still be running
      // there: advance lanes to its boundary (exactly what execute_slot
      // would do) and stop if every lane drained before the pinned slot —
      // mid-schedule or even mid-drain.
      const Cycle fstart = body_.schedule().slot_start(fslot);
      for (int l = 0; l < n; ++l) {
        body_.advance_lane(l, fstart);
      }
      if (exit_slot(last_action_slot) <= fslot) {
        break;
      }
      (void)body_.execute_slot(fslot);
      last_action_slot = fslot;
      cur_slot = fslot + 1;
      continue;
    }
    // 3. Execute the action slot.
    (void)body_.execute_slot(action);
    last_action_slot = action;
    cur_slot = action + 1;
    // 4. Busy stretch: step the following slots directly, as a driver
    //    stepping every slot would, and return to the search after the
    //    first idle one. execute_slot(k - 1) has advanced every lane to
    //    (k - 1) * W, so exit_slot sees the state that driver sees before
    //    slot k; execute_slot pumps transitions itself, and an idle slot
    //    changes nothing the search would not recompute.
    while (cur_slot < horizon && exit_slot(last_action_slot) > cur_slot) {
      const SlotEvent event = body_.execute_slot(cur_slot);
      last_action_slot = cur_slot;
      ++cur_slot;
      if (event.action == SlotEvent::Action::kIdle) {
        break;
      }
    }
  }
  // Final phase: no more bus actions inside the horizon. Finish the
  // remaining local work up to the deepest limit (a lane may still block
  // here; its request lands beyond the horizon).
  for (int l = 0; l < n; ++l) {
    body_.advance_lane(l, deepest);
  }
  slot_index_ = std::min(exit_slot(last_action_slot), horizon);
}

template <typename Backend>
std::int64_t BasicSystem<Backend>::message_slot(int l, Cycle enqueued_at,
                                                std::int64_t cur_slot) const {
  const std::int64_t from = std::max(
      cur_slot, first_slot_at_or_after(enqueued_at, config_.slot_width));
  return from + next_owned_delta_[static_cast<std::size_t>(
                    l * period_ + from % period_)];
}

template <typename Backend>
std::int64_t BasicSystem<Backend>::exit_slot(
    std::int64_t last_action_slot) const {
  std::int64_t exit = last_action_slot + 1;
  for (int l = 0; l < body_.num_lanes(); ++l) {
    if (!body_.drained(l)) {
      return kNoSlot;
    }
    exit = std::max(exit, body_.done_slot(l));
  }
  return exit;
}

template class BasicSystem<mem::MemoryBackend>;
template class BasicSystem<mem::FixedLatencyBackend>;
template class BasicSystem<mem::BankRowBackend>;
template class BasicSystem<mem::WriteQueueBackend>;

}  // namespace psllc::core
