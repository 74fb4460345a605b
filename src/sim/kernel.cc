// See kernel.h for the design contract. Everything the model does happens
// in core::SlotBody; this file only decides which slots to execute. The
// differential battery (tests/test_kernel.cc) and the golden gates check
// that choice against core::System, which executes every slot.
#include "sim/kernel.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "bus/pending_buffers.h"
#include "common/assert.h"
#include "mem/memory_backend.h"

namespace psllc::sim {

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
class ReplayKernel {
 public:
  explicit ReplayKernel(const core::ExperimentSetup& setup)
      : setup_(setup),
        memory_(setup.config.dram),
        body_(setup.config, setup.program, memory_) {
    const bus::TdmSchedule& schedule = body_.schedule();
    const int n = body_.num_lanes();
    const std::size_t count = static_cast<std::size_t>(n);
    // Dense (core, phase) -> slots-until-next-owned table so the hot
    // message_slot path costs one modulo instead of TdmSchedule's
    // scan-with-modulo over the period. Every core owns at least one slot
    // per period (validated by the schedule builders), so the scan below
    // terminates within one period.
    period_ = static_cast<std::int64_t>(schedule.slots_per_period());
    next_owned_delta_.assign(count * static_cast<std::size_t>(period_), 0);
    for (int c = 0; c < n; ++c) {
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

  [[nodiscard]] core::SlotBody<Backend>& body() { return body_; }

  RunMetrics run(const RunOptions& options) {
    const Cycle W = setup_.config.slot_width;
    const std::int64_t horizon =
        options.max_cycles > 0 ? (options.max_cycles + W - 1) / W : 0;
    std::int64_t cur_slot = 0;
    std::int64_t last_action_slot = -1;
    const int n = body_.num_lanes();
    const auto& llc = body_.llc();

    if (horizon > 0) {
      // Deepest advance_lane limit a driver stepping every slot ever
      // issues: the start of the last slot inside the horizon. Lanes must
      // never run past it.
      const Cycle deepest = (horizon - 1) * W;
      for (;;) {
        // 0. Partition-mode transitions pin slots the idle-skip must not
        //    jump: while a transition drains, every slot pumps it, and the
        //    first slot at or after the next trigger epoch is where the
        //    mode switch fires. `fslot` is the earliest such pinned slot
        //    (kNoSlot for static programs).
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
        //    pick-eligible (exact: enqueue times and slot ownership are
        //    both known).
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
        // 2. Refinement: a still-running lane could enqueue a miss that
        //    lands in an earlier slot than `action`. Run the lane with the
        //    smallest possible miss slot forward — never past the runner-up
        //    bound, so no lane ever overshoots the slot that ends up being
        //    executed — until every unblocked lane provably cannot act
        //    before `action` (or the horizon).
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
            // A cached bound stays exact until the lane's replay state
            // changes (its version moves) or cur_slot overtakes it: for
            // cur' >= cur with lb >= cur', no slot of the lane exists in
            // [cur, lb), hence none in [cur', lb) either.
            const std::size_t s = static_cast<std::size_t>(l);
            if (lb_version_[s] != body_.version(l) || lb_[s] < cur_slot) {
              lb_[s] = lower_bound_slot(l, cur_slot);
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
          const Cycle limit =
              limit_slot >= horizon ? deepest : limit_slot * W;
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
          // 2b. A pinned transition slot precedes the next bus action.
          // Execute it only if a driver stepping every slot would still be
          // running there: advance lanes to its boundary (exactly what
          // execute_slot would do) and stop if every lane drained before
          // the pinned slot — mid-schedule or even mid-drain.
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
        //    (k - 1) * W, so exit_slot sees the state that driver sees
        //    before slot k; execute_slot pumps transitions itself, and an
        //    idle slot changes nothing the search would not recompute.
        while (cur_slot < horizon && exit_slot(last_action_slot) > cur_slot) {
          const core::SlotEvent event = body_.execute_slot(cur_slot);
          last_action_slot = cur_slot;
          ++cur_slot;
          if (event.action == core::SlotEvent::Action::kIdle) {
            break;
          }
        }
      }
      // Final phase: no more bus actions inside the horizon. Finish the
      // remaining local work up to the deepest limit (a lane may still
      // block here; its request lands beyond the horizon).
      for (int l = 0; l < n; ++l) {
        body_.advance_lane(l, deepest);
      }
    }

    const std::int64_t exit = exit_slot(last_action_slot);
    const bool completed = exit <= horizon;
    return fill_metrics(body_, setup_, completed,
                        completed ? exit * W : horizon * W);
  }

 private:
  /// First slot >= cur_slot owned by lane `l` whose start is at or after
  /// `enqueued_at` — the exact slot in which the message becomes
  /// pick-eligible.
  [[nodiscard]] std::int64_t message_slot(int l, Cycle enqueued_at,
                                          std::int64_t cur_slot) const {
    const std::int64_t from =
        std::max(cur_slot, first_slot_at_or_after(enqueued_at,
                                                  setup_.config.slot_width));
    return from + next_owned_delta_[static_cast<std::size_t>(
                      l * period_ + from % period_)];
  }

  /// Lower bound on the slot in which lane `l`'s next LLC request could be
  /// presented; every hit before the miss only pushes it later.
  [[nodiscard]] std::int64_t lower_bound_slot(int l, std::int64_t cur_slot) {
    return message_slot(l, body_.earliest_miss_issue(l), cur_slot);
  }

  /// The slot at whose start a driver stepping every slot first sees every
  /// lane drained, given the last slot executed; kNoSlot while a lane still
  /// has work.
  [[nodiscard]] std::int64_t exit_slot(std::int64_t last_action_slot) const {
    std::int64_t exit = last_action_slot + 1;
    for (int l = 0; l < body_.num_lanes(); ++l) {
      if (!body_.drained(l)) {
        return kNoSlot;
      }
      exit = std::max(exit, body_.done_slot(l));
    }
    return exit;
  }

  const core::ExperimentSetup& setup_;
  Backend memory_;
  core::SlotBody<Backend> body_;

  // Hot-path TDM geometry: delta to the next slot owned by a core, indexed
  // by core * period + (slot % period). Built once in the constructor.
  std::int64_t period_ = 0;
  std::vector<std::int64_t> next_owned_delta_;

  // Cached lower_bound_slot per lane, valid while the lane's body version
  // equals lb_version_.
  std::vector<std::int64_t> lb_;
  std::vector<std::uint64_t> lb_version_;
};

template <typename Backend>
RunMetrics run_with(const ReplayRequest& request) {
  ReplayKernel<Backend> kernel(*request.setup);
  bind_workload(kernel.body(), request.workload);
  return kernel.run(request.options);
}

}  // namespace

RunMetrics run_kernel(const ReplayRequest& request) {
  switch (request.setup->config.dram.backend) {
    case mem::MemoryBackendKind::kFixedLatency:
      return run_with<mem::FixedLatencyBackend>(request);
    case mem::MemoryBackendKind::kBankRow:
      return run_with<mem::BankRowBackend>(request);
    case mem::MemoryBackendKind::kWriteQueue:
      return run_with<mem::WriteQueueBackend>(request);
  }
  PSLLC_ASSERT(false, "unknown memory backend kind "
                          << static_cast<int>(request.setup->config.dram.backend));
  return {};
}

}  // namespace psllc::sim
