// See kernel.h for the design contract. The implementation mirrors
// core::System::step_slot / TraceCore::run_until statement for statement —
// any edit here must keep the differential battery (tests/test_kernel.cc)
// and the golden gates bit-identical against the legacy engine.
#include "sim/kernel.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "bus/message.h"
#include "bus/pending_buffers.h"
#include "bus/tdm_schedule.h"
#include "common/assert.h"
#include "common/rng.h"
#include "core/request_tracker.h"
#include "core/wcl_analysis.h"
#include "llc/llc.h"
#include "mem/memory_backend.h"
#include "mem/private_cache.h"
#include "trace/mapped_trace.h"

namespace psllc::sim {

namespace {

constexpr std::int64_t kNoSlot = std::numeric_limits<std::int64_t>::max();

/// Records decoded per MappedTrace batch. Large enough to amortize the
/// per-batch call, small enough to stay resident in L1d (4096 * 24 B).
constexpr std::uint64_t kChunkOps = 4096;

/// First slot index whose start cycle is >= `t` (slot k spans
/// [k*W, (k+1)*W)). Messages enqueued at `t` are pick-eligible from the
/// first slot start at or after `t`.
[[nodiscard]] std::int64_t first_slot_at_or_after(Cycle t, Cycle slot_width) {
  return t > 0 ? (t + slot_width - 1) / slot_width : 0;
}

/// Read cursor over one lane's op stream. Either borrows a materialized
/// trace (per-core / shared workloads, address offset applied per access)
/// or decodes .pslt records in batches straight off the mapped view into a
/// reused chunk buffer (offset applied at decode). No per-op allocation:
/// the chunk is reserved once and recycled.
class LaneCursor {
 public:
  void init_direct(const core::Trace& trace, Addr offset) {
    direct_ = trace.data();
    size_ = trace.size();
    offset_ = offset;
  }

  void init_view(const trace::MappedTrace& view, Addr offset) {
    view_ = &view;
    size_ = view.size();
    offset_ = offset;
    chunk_.reserve(static_cast<std::size_t>(std::min(size_, kChunkOps)));
  }

  [[nodiscard]] std::uint64_t size() const { return size_; }

  [[nodiscard]] core::MemOp at(std::uint64_t pc) {
    if (direct_ != nullptr) {
      core::MemOp op = direct_[pc];
      op.addr += offset_;
      return op;
    }
    if (pc < chunk_begin_ || pc >= chunk_end_) {
      refill(pc);
    }
    return chunk_[static_cast<std::size_t>(pc - chunk_begin_)];
  }

 private:
  void refill(std::uint64_t pc) {
    chunk_begin_ = pc;
    chunk_end_ = std::min(pc + kChunkOps, size_);
    chunk_.resize(static_cast<std::size_t>(chunk_end_ - chunk_begin_));
    view_->decode_batch(chunk_begin_, chunk_end_ - chunk_begin_, offset_,
                        chunk_.data());
  }

  const core::MemOp* direct_ = nullptr;
  const trace::MappedTrace* view_ = nullptr;
  Addr offset_ = 0;
  std::uint64_t size_ = 0;
  std::vector<core::MemOp> chunk_;
  std::uint64_t chunk_begin_ = 0;
  std::uint64_t chunk_end_ = 0;  ///< chunk covers [chunk_begin_, chunk_end_)
};

template <typename Backend>
class ReplayKernel {
 public:
  explicit ReplayKernel(const core::ExperimentSetup& setup)
      : setup_(setup),
        config_(setup.config),
        schedule_(config_.make_schedule()),
        memory_(config_.dram),
        llc_(config_.llc, setup.program, config_.mode, config_.num_cores,
             memory_),
        tracker_(config_.num_cores, /*keep_records=*/false) {
    config_.validate();
    llc_.program().validate(config_.num_cores);
    const int n = config_.num_cores;
    const std::size_t count = static_cast<std::size_t>(n);
    // Dense (core, phase) -> slots-until-next-owned table so the hot
    // message_slot path costs one modulo instead of TdmSchedule's
    // scan-with-modulo over the period. Every core owns at least one slot
    // per period (validated by the schedule builders), so the scan below
    // terminates within one period.
    period_ = static_cast<std::int64_t>(schedule_.slots_per_period());
    next_owned_delta_.assign(count * static_cast<std::size_t>(period_), 0);
    for (int c = 0; c < n; ++c) {
      for (std::int64_t p = 0; p < period_; ++p) {
        std::int64_t d = 0;
        while (schedule_.owner_of_slot(p + d).value != c) {
          ++d;
        }
        next_owned_delta_[static_cast<std::size_t>(c * period_ + p)] = d;
      }
    }
    cursors_.resize(count);
    pc_.assign(count, 0);
    lane_size_.assign(count, 0);
    lb_.assign(count, 0);
    lb_valid_.assign(count, 0);
    next_ready_.assign(count, 0);
    finish_time_.assign(count, 0);
    done_slot_.assign(count, 0);
    gap_applied_.assign(count, 0);
    blocked_.assign(count, 0);
    out_addr_.assign(count, 0);
    out_type_.assign(count, AccessType::kRead);
    caches_.reserve(count);
    buffers_.reserve(count);
    for (int c = 0; c < n; ++c) {
      caches_.emplace_back(
          config_.private_caches,
          mix_seed(config_.seed, static_cast<std::uint64_t>(c), 0xc04e));
      buffers_.emplace_back(config_.pwb_capacity);
    }
  }

  void set_workload(const ReplayWorkload& workload) {
    const int n = config_.num_cores;
    for (int c = 0; c < n; ++c) {
      const std::size_t l = static_cast<std::size_t>(c);
      if (workload.per_core != nullptr) {
        if (l < workload.per_core->size()) {
          cursors_[l].init_direct((*workload.per_core)[l], 0);
        }
      } else if (c < workload.replicas) {
        const Addr offset = workload.window * static_cast<Addr>(c);
        if (workload.shared != nullptr) {
          cursors_[l].init_direct(*workload.shared, offset);
        } else {
          cursors_[l].init_view(*workload.shared_view, offset);
        }
      }
      lane_size_[l] = cursors_[l].size();
      // An empty lane is trace-done from cycle 0: the legacy loop observes
      // it before slot 0, so its contribution to the exit slot is 0.
      done_slot_[l] = 0;
    }
  }

  RunMetrics run(const RunOptions& options) {
    const Cycle W = config_.slot_width;
    const std::int64_t horizon =
        options.max_cycles > 0 ? (options.max_cycles + W - 1) / W : 0;
    std::int64_t cur_slot = 0;
    std::int64_t last_action_slot = -1;
    const int n = config_.num_cores;

    if (horizon > 0) {
      // Deepest run_until limit the legacy loop ever issues: the start of
      // the last slot inside the horizon. Lanes must never run past it.
      const Cycle deepest = (horizon - 1) * W;
      for (;;) {
        // 0. Partition-mode transitions pin slots the idle-skip must not
        //    jump: while a transition drains, every slot pumps it (legacy
        //    executes every slot), and the first slot at or after the next
        //    trigger epoch is where the mode switch fires. `fslot` is the
        //    earliest such pinned slot (kNoSlot for static programs).
        std::int64_t fslot = kNoSlot;
        if (llc_.transition_active()) {
          fslot = cur_slot;
        } else {
          const Cycle epoch = llc_.next_transition_epoch();
          if (epoch != kNoCycle) {
            fslot = std::max(cur_slot, first_slot_at_or_after(epoch, W));
          }
        }
        // 1. Earliest slot in which an already-buffered PRB/PWB message is
        //    pick-eligible (exact: enqueue times and slot ownership are
        //    both known).
        std::int64_t action = kNoSlot;
        for (int l = 0; l < n; ++l) {
          const bus::PendingBuffers& buf = buffers_[static_cast<std::size_t>(l)];
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
            const std::size_t s = static_cast<std::size_t>(l);
            if (blocked_[s] != 0 || pc_[s] >= lane_size_[s]) {
              continue;
            }
            // A cached bound stays exact until the lane's replay state
            // mutates (advance_lane/respond clear lb_valid_) or cur_slot
            // overtakes it: for cur' >= cur with lb >= cur', no slot of the
            // lane exists in [cur, lb), hence none in [cur', lb) either.
            if (lb_valid_[s] == 0 || lb_[s] < cur_slot) {
              lb_[s] = lower_bound_slot(l, cur_slot);
              lb_valid_[s] = 1;
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
          advance_lane(best_lane, limit);
          if (blocked_[static_cast<std::size_t>(best_lane)] != 0) {
            const Cycle enq = buffers_[static_cast<std::size_t>(best_lane)]
                                  .request()
                                  .enqueued_at;
            action = std::min(action, message_slot(best_lane, enq, cur_slot));
          }
        }
        if (std::min(action, fslot) >= horizon) {
          break;
        }
        if (fslot < action) {
          // 2b. A pinned transition slot precedes the next bus action.
          // Execute it only if the legacy loop would still be running
          // there: advance lanes to its boundary (exactly what
          // execute_slot would do) and replicate the `while (!all_done())`
          // exit — traces finished and buffers drained earlier means
          // legacy stopped before the trigger, mid-schedule or even
          // mid-drain, and so must we.
          const Cycle fstart = schedule_.slot_start(fslot);
          for (int l = 0; l < n; ++l) {
            advance_lane(l, fstart);
          }
          bool running = false;
          std::int64_t exit_slot = last_action_slot + 1;
          for (int l = 0; l < n && !running; ++l) {
            const std::size_t s = static_cast<std::size_t>(l);
            if (blocked_[s] != 0 || pc_[s] < lane_size_[s] ||
                buffers_[s].has_request() || buffers_[s].has_writeback()) {
              running = true;
            } else {
              exit_slot = std::max(exit_slot, done_slot_[s]);
            }
          }
          if (!running && exit_slot <= fslot) {
            break;
          }
          execute_slot(fslot);
          last_action_slot = fslot;
          cur_slot = fslot + 1;
          continue;
        }
        // 3. Execute the action slot exactly like System::step_slot.
        execute_slot(action);
        last_action_slot = action;
        cur_slot = action + 1;
      }
      // Final phase: no more bus actions inside the horizon. Finish the
      // remaining local work up to the legacy loop's deepest limit (a lane
      // may still block here; its request lands beyond the horizon).
      for (int l = 0; l < n; ++l) {
        advance_lane(l, deepest);
      }
    }

    // Exit determination, replicating the legacy `while (!all_done() &&
    // now_ < max_cycles)` loop: all_done first becomes observable at the
    // slot boundary after the last lane finished / last message drained.
    bool drained = true;
    std::int64_t exit_slot = last_action_slot + 1;
    for (int l = 0; l < n && drained; ++l) {
      const std::size_t s = static_cast<std::size_t>(l);
      if (blocked_[s] != 0 || pc_[s] < lane_size_[s] ||
          buffers_[s].has_request() || buffers_[s].has_writeback()) {
        drained = false;
      } else {
        exit_slot = std::max(exit_slot, done_slot_[s]);
      }
    }
    const bool completed = drained && exit_slot <= horizon;
    const Cycle end_cycle = completed ? exit_slot * W : horizon * W;
    return fill_metrics(completed, end_cycle);
  }

 private:
  /// First slot >= cur_slot owned by lane `l` whose start is at or after
  /// `enqueued_at` — the exact slot in which the message becomes
  /// pick-eligible.
  [[nodiscard]] std::int64_t message_slot(int l, Cycle enqueued_at,
                                          std::int64_t cur_slot) const {
    const std::int64_t from =
        std::max(cur_slot,
                 first_slot_at_or_after(enqueued_at, config_.slot_width));
    return from + next_owned_delta_[static_cast<std::size_t>(
                      l * period_ + from % period_)];
  }

  /// Lower bound on the slot in which lane `l`'s *next* LLC request could
  /// be presented: even if the very next op misses, its request is enqueued
  /// no earlier than next_ready + pending gap + L1 + L2 tag walks, and
  /// every hit in between only pushes that later.
  [[nodiscard]] std::int64_t lower_bound_slot(int l, std::int64_t cur_slot) {
    const std::size_t s = static_cast<std::size_t>(l);
    const core::MemOp op = cursors_[s].at(pc_[s]);
    const Cycle gap = gap_applied_[s] != 0 ? 0 : op.gap;
    const Cycle earliest_issue = next_ready_[s] + gap +
                                 config_.private_caches.l1_hit_latency +
                                 config_.private_caches.l2_hit_latency;
    return message_slot(l, earliest_issue, cur_slot);
  }

  /// TraceCore::run_until on flat lane state.
  void advance_lane(int l, Cycle limit) {
    const std::size_t s = static_cast<std::size_t>(l);
    if (blocked_[s] != 0) {
      return;
    }
    const Cycle l1_latency = config_.private_caches.l1_hit_latency;
    const Cycle l2_latency = config_.private_caches.l2_hit_latency;
    const std::uint64_t size = lane_size_[s];
    LaneCursor& cursor = cursors_[s];
    mem::PrivateCacheHierarchy& caches = caches_[s];
    std::uint64_t pc = pc_[s];
    Cycle next_ready = next_ready_[s];
    const std::uint64_t entry_pc = pc;
    const Cycle entry_next_ready = next_ready;
    const unsigned char entry_gap_applied = gap_applied_[s];
    while (pc < size) {
      const core::MemOp op = cursor.at(pc);
      if (gap_applied_[s] == 0) {
        next_ready += op.gap;
        gap_applied_[s] = 1;
      }
      if (next_ready >= limit) {
        break;  // nothing more can start before the slot boundary
      }
      const Cycle start = next_ready;
      const mem::HitLevel level = caches.access(op.addr, op.type);
      if (level == mem::HitLevel::kL1) {
        next_ready += l1_latency;
      } else if (level == mem::HitLevel::kL2) {
        next_ready += l1_latency + l2_latency;
      } else {
        const Cycle issue = next_ready + l1_latency + l2_latency;
        const LineAddr line = config_.private_caches.l2.line_of(op.addr);
        const std::uint64_t id = tracker_.begin(CoreId{l}, line, op.type, issue);
        bus::BusMessage msg;
        msg.kind = bus::MessageKind::kRequest;
        msg.source = CoreId{l};
        msg.line = line;
        msg.access = op.type;
        msg.request_id = id;
        msg.enqueued_at = issue;
        buffers_[s].set_request(msg);
        out_addr_[s] = op.addr;
        out_type_[s] = op.type;
        blocked_[s] = 1;
        break;
      }
      ++pc;
      gap_applied_[s] = 0;
      if (pc == size) {
        finish_time_[s] = next_ready;
        // The legacy loop consumes this op while executing the slot that
        // contains `start`, so all_done is first observable one slot after
        // that one.
        done_slot_[s] = start / config_.slot_width + 2;
      }
    }
    pc_[s] = pc;
    next_ready_[s] = next_ready;
    if (pc != entry_pc || next_ready != entry_next_ready ||
        gap_applied_[s] != entry_gap_applied) {
      lb_valid_[s] = 0;
    }
  }

  /// System::step_slot for the one slot `slot` (which carries an action).
  void execute_slot(std::int64_t slot) {
    const Cycle slot_start = schedule_.slot_start(slot);
    const int n = config_.num_cores;
    for (int l = 0; l < n; ++l) {
      advance_lane(l, slot_start);
    }
    // Mirror of System::step_slot step 1b: fire/pump mode transitions at
    // the slot boundary before the owner pick.
    for (const auto& binval : llc_.advance_transition(slot_start)) {
      deliver_back_invalidation(binval, slot_start);
    }
    const CoreId owner = schedule_.owner_of_slot(slot);
    const std::size_t o = static_cast<std::size_t>(owner.value);
    switch (buffers_[o].pick(slot_start)) {
      case bus::PendingBuffers::Pick::kNone:
        break;
      case bus::PendingBuffers::Pick::kRequest: {
        const bus::BusMessage& msg = buffers_[o].request();
        const std::uint64_t request_id = msg.request_id;
        const LineAddr line = msg.line;
        tracker_.on_presented(request_id, slot_start);
        const llc::RequestOutcome outcome =
            llc_.handle_request(owner, line, slot_start, msg.access);
        if (outcome.back_invalidation) {
          deliver_back_invalidation(*outcome.back_invalidation, slot_start);
        }
        if (outcome.completed()) {
          const Cycle completion = slot_start + config_.slot_width;
          bool recovered_dirty = false;
          if (const auto cancelled = buffers_[o].cancel_writeback(line)) {
            recovered_dirty = cancelled->carries_dirty_data;
          }
          const std::optional<mem::Evicted> victim =
              respond(owner.value, slot, completion, recovered_dirty);
          const Cycle first_presented =
              tracker_.inflight(owner).first_presented;
          if (llc_.overlaps_transition(first_presented, completion)) {
            const Cycle latency = completion - first_presented;
            if (observed_transient_wcl_ == kNoCycle ||
                latency > observed_transient_wcl_) {
              observed_transient_wcl_ = latency;
            }
          }
          tracker_.on_completed(request_id, completion);
          if (victim) {
            handle_private_victim(owner, *victim, completion);
          }
        }
        break;
      }
      case bus::PendingBuffers::Pick::kWriteBack: {
        const bus::BusMessage msg = buffers_[o].pop_writeback();
        tracker_.on_writeback_sent(owner);
        (void)llc_.handle_writeback(owner, msg.line, msg.carries_dirty_data,
                                    msg.frees_llc_entry, slot_start);
        break;
      }
    }
  }

  /// TraceCore::on_response on flat lane state; `slot` is the serving slot.
  std::optional<mem::Evicted> respond(int l, std::int64_t slot,
                                      Cycle completion, bool recovered_dirty) {
    const std::size_t s = static_cast<std::size_t>(l);
    PSLLC_ASSERT(blocked_[s] != 0,
                 "lane " << l << " got a response without a request");
    const bool write = is_write(out_type_[s]) || recovered_dirty;
    std::optional<mem::Evicted> victim =
        caches_[s].fill(out_addr_[s], out_type_[s], write);
    blocked_[s] = 0;
    buffers_[s].clear_request();
    next_ready_[s] = completion;
    ++pc_[s];
    gap_applied_[s] = 0;
    lb_valid_[s] = 0;
    if (pc_[s] == lane_size_[s]) {
      finish_time_[s] = completion;
      done_slot_[s] = slot + 1;
    }
    return victim;
  }

  /// System::deliver_back_invalidation on flat lane state.
  void deliver_back_invalidation(const llc::BackInvalidation& binval,
                                 Cycle slot_start) {
    for (CoreId owner : binval.owners) {
      const std::size_t o = static_cast<std::size_t>(owner.value);
      const mem::ForcedEviction evicted = caches_[o].force_evict(binval.line);
      if (evicted.was_present) {
        PSLLC_ASSERT(!buffers_[o].has_writeback_for(binval.line),
                     "core holds line 0x" << std::hex << binval.line
                                          << " while its write-back is queued");
        if (evicted.was_dirty || config_.llc.clean_back_inval_costs_slot) {
          bus::BusMessage wb;
          wb.kind = bus::MessageKind::kWriteBack;
          wb.source = owner;
          wb.line = binval.line;
          wb.carries_dirty_data = evicted.was_dirty;
          wb.frees_llc_entry = true;
          wb.enqueued_at = slot_start;
          buffers_[o].push_writeback(wb);
        } else {
          (void)llc_.ack_back_invalidation_silent(owner, binval.line,
                                                  slot_start);
        }
      } else if (buffers_[o].has_writeback_for(binval.line)) {
        const bool upgraded =
            buffers_[o].upgrade_writeback_to_forced(binval.line);
        PSLLC_ASSERT(upgraded, "upgrade failed despite queued write-back");
      } else {
        PSLLC_ASSERT(false, "directory lists " << to_string(owner)
                                               << " for line 0x" << std::hex
                                               << binval.line
                                               << " but the core has neither "
                                                  "the line nor a write-back");
      }
    }
  }

  /// System::handle_private_victim on flat lane state.
  void handle_private_victim(CoreId owner, const mem::Evicted& victim,
                             Cycle completion) {
    if (victim.dirty) {
      bus::BusMessage wb;
      wb.kind = bus::MessageKind::kWriteBack;
      wb.source = owner;
      wb.line = victim.line;
      wb.carries_dirty_data = true;
      wb.frees_llc_entry = false;
      wb.enqueued_at = completion;
      buffers_[static_cast<std::size_t>(owner.value)].push_writeback(wb);
    } else {
      llc_.notify_silent_eviction(owner, victim.line);
    }
  }

  /// run_system's metric fill, field for field.
  [[nodiscard]] RunMetrics fill_metrics(bool completed, Cycle end_cycle) const {
    RunMetrics metrics;
    metrics.completed = completed;
    metrics.end_cycle = end_cycle;
    metrics.analytical_wcl = core::analytical_wcl_cycles(setup_, CoreId{0});
    metrics.transient_analytical_wcl =
        core::transient_wcl_cycles(setup_, CoreId{0});
    metrics.observed_transient_wcl = observed_transient_wcl_;
    metrics.llc_requests = tracker_.completed_requests();
    metrics.observed_wcl =
        tracker_.completed_requests() > 0 ? tracker_.max_service_latency() : 0;
    const int n = config_.num_cores;
    metrics.per_core_finish.reserve(static_cast<std::size_t>(n));
    Cycle makespan = 0;
    for (int l = 0; l < n; ++l) {
      const std::size_t s = static_cast<std::size_t>(l);
      const bool trace_done = blocked_[s] == 0 && pc_[s] >= lane_size_[s];
      metrics.per_core_finish.push_back(trace_done ? finish_time_[s]
                                                   : kNoCycle);
      metrics.per_core_l1_hits.push_back(caches_[s].l1_hits());
      metrics.per_core_l2_hits.push_back(caches_[s].l2_hits());
      metrics.per_core_misses.push_back(caches_[s].misses());
      makespan = std::max(makespan, finish_time_[s]);
    }
    if (completed) {
      metrics.makespan = makespan;
    }
    metrics.llc_stats = llc_.stats();
    metrics.memory = memory_.counters();
    metrics.dram_reads = metrics.memory.reads;
    metrics.dram_writes = metrics.memory.writes;
    return metrics;
  }

  const core::ExperimentSetup& setup_;
  const core::SystemConfig& config_;
  bus::TdmSchedule schedule_;
  Backend memory_;
  llc::BasicPartitionedLlc<Backend> llc_;
  core::RequestTracker tracker_;
  Cycle observed_transient_wcl_ = kNoCycle;

  // Hot-path TDM geometry: delta to the next slot owned by a core, indexed
  // by core * period + (slot % period). Built once in the constructor.
  std::int64_t period_ = 0;
  std::vector<std::int64_t> next_owned_delta_;

  // Struct-of-arrays lane state (one entry per core).
  std::vector<LaneCursor> cursors_;
  std::vector<std::uint64_t> pc_;
  std::vector<std::uint64_t> lane_size_;
  std::vector<std::int64_t> lb_;  ///< cached lower_bound_slot per lane
  std::vector<unsigned char> lb_valid_;
  std::vector<Cycle> next_ready_;
  std::vector<Cycle> finish_time_;
  std::vector<std::int64_t> done_slot_;  ///< slot where all_done sees the lane
  std::vector<unsigned char> gap_applied_;
  std::vector<unsigned char> blocked_;
  std::vector<Addr> out_addr_;          ///< outstanding request address
  std::vector<AccessType> out_type_;    ///< outstanding request access type
  std::vector<mem::PrivateCacheHierarchy> caches_;
  std::vector<bus::PendingBuffers> buffers_;
};

template <typename Backend>
RunMetrics run_with(const ReplayRequest& request) {
  ReplayKernel<Backend> kernel(*request.setup);
  kernel.set_workload(request.workload);
  return kernel.run(request.options);
}

}  // namespace

RunMetrics run_kernel(const ReplayRequest& request) {
  PSLLC_ASSERT(kernel_eligible(request),
               "run_kernel called with a kernel-ineligible request");
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
