// The paper's system model (Sections 3-4), written once: in-order
// trace-driven cores, each with private L1/L2 caches and a PRB/PWB pair, a
// TDM bus carrying one message per slot, and the partitioned inclusive LLC
// whose evictions back-invalidate private copies.
//
// SlotBody holds the per-core ("lane") state, struct-of-arrays, and the
// slot semantics. Each lane replays a borrowed core::Trace, every address
// shifted by the lane's offset. Its one driver, core::BasicSystem
// (core/system.h), decides which slots to execute: every slot (step_slot,
// run_slots, or run with an observer registered), or only the slots that
// carry a bus action, advancing lanes between them no further than its
// no-overshoot bound allows (run). Whatever the model does happens here,
// so both ways agree by construction; they differ only in which slots they
// visit. Skipping a slot is sound because an idle slot changes nothing
// (PendingBuffers::pick leaves its round-robin preference untouched when
// nothing is eligible).
//
// The body is a template over the memory backend: core::System
// instantiates it on the virtual mem::MemoryBackend, sim::replay() on each
// concrete `final` backend so the LLC's DRAM calls devirtualize and
// inline.
#ifndef PSLLC_CORE_SLOT_BODY_H_
#define PSLLC_CORE_SLOT_BODY_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "bus/message.h"
#include "bus/pending_buffers.h"
#include "bus/tdm_schedule.h"
#include "common/assert.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/mem_op.h"
#include "core/request_tracker.h"
#include "core/system_config.h"
#include "llc/llc.h"
#include "mem/private_cache.h"

namespace psllc::core {

/// What happened in one bus slot (fed to observers such as the
/// DistanceMonitor).
struct SlotEvent {
  std::int64_t slot_index = 0;
  Cycle slot_start = 0;
  CoreId owner;
  enum class Action : std::uint8_t { kIdle, kRequest, kWriteBack };
  Action action = Action::kIdle;
  LineAddr line = 0;
  bool request_completed = false;  ///< kRequest: hit or filled this slot
  bool writeback_frees = false;    ///< kWriteBack: freed an LLC entry
};

template <typename Backend>
class SlotBody {
 public:
  /// `config` and `memory` are borrowed and must outlive the body.
  SlotBody(const SystemConfig& config, llc::PartitionProgram program,
           Backend& memory)
      : config_(config),
        schedule_(config.make_schedule()),
        memory_(&memory),
        llc_(config.llc, std::move(program), config.mode, config.num_cores,
             memory),
        tracker_(config.num_cores, config.keep_request_records) {
    config_.validate();
    llc_.program().validate(config_.num_cores);
    const std::size_t count = static_cast<std::size_t>(config_.num_cores);
    lane_ops_.assign(count, nullptr);
    lane_offset_.assign(count, 0);
    pc_.assign(count, 0);
    lane_size_.assign(count, 0);
    version_.assign(count, 0);
    next_ready_.assign(count, 0);
    finish_time_.assign(count, 0);
    done_slot_.assign(count, 0);
    gap_applied_.assign(count, 0);
    blocked_.assign(count, 0);
    out_addr_.assign(count, 0);
    out_type_.assign(count, AccessType::kRead);
    caches_.reserve(count);
    buffers_.reserve(count);
    for (int c = 0; c < config_.num_cores; ++c) {
      caches_.emplace_back(
          config_.private_caches,
          mix_seed(config_.seed, static_cast<std::uint64_t>(c), 0xc04e));
      buffers_.emplace_back(config_.pwb_capacity);
    }
  }

  SlotBody(const SlotBody&) = delete;
  SlotBody& operator=(const SlotBody&) = delete;

  // --- lane setup ---------------------------------------------------------

  /// Points lane `l` at `trace` (borrowed; must outlive the replay), every
  /// address shifted by `offset`, and restarts it at the first op. The
  /// lane's ready time carries over, so a trace bound between runs starts
  /// where the previous one ended.
  void bind_lane(int l, const Trace& trace, Addr offset) {
    const std::size_t s = at(l);
    lane_ops_[s] = trace.data();
    lane_offset_[s] = offset;
    lane_size_[s] = trace.size();
    pc_[s] = 0;
    gap_applied_[s] = 0;
    done_slot_[s] = 0;
    ++version_[s];
  }

  /// Scenario setup: `line` resident in the LLC and privately cached by
  /// `owner` (`dirty_private` marks the private copy dirty).
  void preload_owned_line(CoreId owner, LineAddr line, bool dirty_private) {
    llc_.preload(line, {owner}, /*dirty=*/false);
    caches_[at(owner.value)].preload(line, dirty_private);
  }

  // --- slot semantics -----------------------------------------------------

  /// Executes lane `l`'s local work (L1/L2 hits) up to — but not into —
  /// `limit`. Stops early when an L2 miss enqueues a bus request (the lane
  /// blocks until its response).
  void advance_lane(int l, Cycle limit) {
    const std::size_t s = at(l);
    if (blocked_[s] != 0) {
      return;
    }
    const Cycle l1_latency = config_.private_caches.l1_hit_latency;
    const Cycle l2_latency = config_.private_caches.l2_hit_latency;
    const std::uint64_t size = lane_size_[s];
    const MemOp* const ops = lane_ops_[s];
    const Addr offset = lane_offset_[s];
    mem::PrivateCacheHierarchy& caches = caches_[s];
    std::uint64_t pc = pc_[s];
    Cycle next_ready = next_ready_[s];
    const std::uint64_t entry_pc = pc;
    const Cycle entry_next_ready = next_ready;
    const unsigned char entry_gap_applied = gap_applied_[s];
    while (pc < size) {
      MemOp op = ops[pc];
      op.addr += offset;
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
        // Miss detection walks L1 then L2 tags, then enqueues the request.
        const Cycle issue = next_ready + l1_latency + l2_latency;
        const LineAddr line = config_.private_caches.l2.line_of(op.addr);
        tracker_.begin(CoreId{l}, line, op.type, issue);
        bus::BusMessage msg;
        msg.kind = bus::MessageKind::kRequest;
        msg.source = CoreId{l};
        msg.line = line;
        msg.access = op.type;
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
        // The op ran in the slot containing `start`; a driver stepping
        // every slot first sees the lane done one slot after that.
        done_slot_[s] = start / config_.slot_width + 2;
      }
    }
    pc_[s] = pc;
    next_ready_[s] = next_ready;
    if (pc != entry_pc || next_ready != entry_next_ready ||
        gap_applied_[s] != entry_gap_applied) {
      ++version_[s];
    }
  }

  /// Executes slot `slot`: every lane runs up to the slot boundary,
  /// partition-mode transitions fire or pump, then the slot owner's L2
  /// controller round-robin-picks one eligible message (request or
  /// write-back) and the LLC services it. Hits and fills complete at the
  /// end of the slot; a blocked request may start an eviction whose
  /// back-invalidations are delivered at once (the owners' freeing
  /// write-backs occupy later slots of their own).
  SlotEvent execute_slot(std::int64_t slot) {
    const Cycle slot_start = schedule_.slot_start(slot);
    for (int l = 0; l < config_.num_cores; ++l) {
      advance_lane(l, slot_start);
    }
    // A transition switches the map, drains incompatible residents (their
    // back-invalidations are delivered like eviction-triggered ones) and
    // fences before releasing new ways.
    for (const auto& binval : llc_.advance_transition(slot_start)) {
      deliver_back_invalidation(binval, slot_start);
    }
    const CoreId owner = schedule_.owner_of_slot(slot);
    const std::size_t o = at(owner.value);
    SlotEvent event;
    event.slot_index = slot;
    event.slot_start = slot_start;
    event.owner = owner;
    switch (buffers_[o].pick(slot_start)) {
      case bus::PendingBuffers::Pick::kNone:
        break;
      case bus::PendingBuffers::Pick::kRequest: {
        const bus::BusMessage& msg = buffers_[o].request();
        const LineAddr line = msg.line;
        event.action = SlotEvent::Action::kRequest;
        event.line = line;
        tracker_.on_presented(owner, slot_start);
        const llc::RequestOutcome outcome =
            llc_.handle_request(owner, line, slot_start, msg.access);
        if (outcome.back_invalidation) {
          deliver_back_invalidation(*outcome.back_invalidation, slot_start);
        }
        if (outcome.completed()) {
          const Cycle completion = slot_start + config_.slot_width;
          // A hit may race an in-flight voluntary write-back for the same
          // line (the core re-fetched a line whose dirty victim write-back
          // is still queued). Cancel the write-back and recover its
          // dirtiness into the refilled private copy, keeping the directory
          // exact.
          bool recovered_dirty = false;
          if (const auto cancelled = buffers_[o].cancel_writeback(line)) {
            recovered_dirty = cancelled->carries_dirty_data;
            ++writebacks_cancelled_;
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
          tracker_.on_completed(owner, completion);
          event.request_completed = true;
          if (victim) {
            handle_private_victim(owner, *victim, completion);
          }
          PSLLC_TRACE("slot " << slot << " " << to_string(owner)
                              << " Resp line=0x" << std::hex << line);
        }
        break;
      }
      case bus::PendingBuffers::Pick::kWriteBack: {
        const bus::BusMessage msg = buffers_[o].pop_writeback();
        event.action = SlotEvent::Action::kWriteBack;
        event.line = msg.line;
        tracker_.on_writeback_sent(owner);
        const llc::WritebackOutcome outcome = llc_.handle_writeback(
            owner, msg.line, msg.carries_dirty_data, msg.frees_llc_entry,
            slot_start);
        event.writeback_frees = outcome.freed_entry;
        PSLLC_TRACE("slot " << slot << " " << to_string(owner)
                            << " WB line=0x" << std::hex << msg.line
                            << (outcome.freed_entry ? " (freed)" : ""));
        break;
      }
    }
    return event;
  }

  /// The LLC response for lane `l`'s outstanding request arrived at
  /// `completion`, the end of serving slot `slot`. Installs the line
  /// (`recovered_dirty` folds the dirtiness of a cancelled in-flight
  /// write-back into the private copy), unblocks the lane and returns the
  /// L2 capacity victim, if any, whose write-back or directory notification
  /// the caller owns.
  std::optional<mem::Evicted> respond(int l, std::int64_t slot,
                                      Cycle completion, bool recovered_dirty) {
    const std::size_t s = at(l);
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
    ++version_[s];
    if (pc_[s] == lane_size_[s]) {
      finish_time_[s] = completion;
      done_slot_[s] = slot + 1;
    }
    return victim;
  }

  /// Delivers `binval` to every owner: the private copy is evicted and
  /// answered with a freeing write-back (or acknowledged without a slot
  /// when clean and clean back-invalidations cost none); an owner whose
  /// copy already left has its queued voluntary write-back upgraded so
  /// that its arrival frees the LLC entry.
  void deliver_back_invalidation(const llc::BackInvalidation& binval,
                                 Cycle slot_start) {
    for (llc::CoreMask m = binval.owners; m != 0; m &= m - 1) {
      const CoreId owner = llc::lowest_core(m);
      const std::size_t o = at(owner.value);
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

  /// An L2 capacity victim of a fill: a dirty one is queued as a voluntary
  /// write-back (the directory keeps the core as sharer until it arrives),
  /// a clean one is dropped with a directory notification.
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
      buffers_[at(owner.value)].push_writeback(wb);
    } else {
      llc_.notify_silent_eviction(owner, victim.line);
    }
  }

  // --- lane queries -------------------------------------------------------

  [[nodiscard]] int num_lanes() const { return config_.num_cores; }
  [[nodiscard]] bool blocked(int l) const { return blocked_[at(l)] != 0; }
  /// Every op of the lane's trace completed (its buffers may still drain).
  [[nodiscard]] bool trace_done(int l) const {
    return !blocked(l) && pc_[at(l)] >= lane_size_[at(l)];
  }
  /// Unblocked with ops left, so advance_lane can make progress.
  [[nodiscard]] bool runnable(int l) const {
    return !blocked(l) && pc_[at(l)] < lane_size_[at(l)];
  }
  /// Trace done and both bus buffers empty.
  [[nodiscard]] bool drained(int l) const {
    const bus::PendingBuffers& buffers = buffers_[at(l)];
    return trace_done(l) && !buffers.has_request() && !buffers.has_writeback();
  }
  /// Cycle at which the lane's last op completed (valid once trace_done).
  [[nodiscard]] Cycle finish_time(int l) const { return finish_time_[at(l)]; }
  /// First slot at whose start a driver stepping every slot sees the lane
  /// done (0 for a lane that never had ops).
  [[nodiscard]] std::int64_t done_slot(int l) const {
    return done_slot_[at(l)];
  }
  [[nodiscard]] std::uint64_t ops_completed(int l) const { return pc_[at(l)]; }
  /// Bumped whenever the lane's replay position or ready time changes.
  [[nodiscard]] std::uint64_t version(int l) const { return version_[at(l)]; }
  /// Earliest cycle at which the lane's next op could enqueue a request:
  /// even a miss waits for the ready time, the pending gap and the L1 + L2
  /// tag walks. Requires runnable(l).
  [[nodiscard]] Cycle earliest_miss_issue(int l) const {
    const std::size_t s = at(l);
    const Cycle gap = gap_applied_[s] != 0 ? 0 : lane_ops_[s][pc_[s]].gap;
    return next_ready_[s] + gap + config_.private_caches.l1_hit_latency +
           config_.private_caches.l2_hit_latency;
  }
  [[nodiscard]] const mem::PrivateCacheHierarchy& caches(int l) const {
    return caches_[at(l)];
  }
  [[nodiscard]] const bus::PendingBuffers& buffers(int l) const {
    return buffers_[at(l)];
  }

  // --- system queries -----------------------------------------------------

  [[nodiscard]] const SystemConfig& config() const { return config_; }
  [[nodiscard]] const bus::TdmSchedule& schedule() const { return schedule_; }
  [[nodiscard]] const Backend& memory() const { return *memory_; }
  [[nodiscard]] const llc::BasicPartitionedLlc<Backend>& llc() const {
    return llc_;
  }
  [[nodiscard]] llc::BasicPartitionedLlc<Backend>& llc_mut() { return llc_; }
  [[nodiscard]] const RequestTracker& tracker() const { return tracker_; }
  /// Voluntary write-backs cancelled because the core re-fetched the line
  /// while they were still queued.
  [[nodiscard]] std::int64_t writebacks_cancelled() const {
    return writebacks_cancelled_;
  }
  /// Max service latency over requests in flight across a partition-mode
  /// transition window; kNoCycle when none overlapped.
  [[nodiscard]] Cycle observed_transient_wcl() const {
    return observed_transient_wcl_;
  }

 private:
  [[nodiscard]] static std::size_t at(int l) {
    return static_cast<std::size_t>(l);
  }

  const SystemConfig& config_;
  bus::TdmSchedule schedule_;
  const Backend* memory_;
  llc::BasicPartitionedLlc<Backend> llc_;
  RequestTracker tracker_;
  std::int64_t writebacks_cancelled_ = 0;
  Cycle observed_transient_wcl_ = kNoCycle;

  // Struct-of-arrays lane state, one entry per core.
  std::vector<const MemOp*> lane_ops_;  ///< borrowed trace of each lane
  std::vector<Addr> lane_offset_;       ///< added to every op's address
  std::vector<std::uint64_t> pc_;
  std::vector<std::uint64_t> lane_size_;
  std::vector<std::uint64_t> version_;
  std::vector<Cycle> next_ready_;
  std::vector<Cycle> finish_time_;
  std::vector<std::int64_t> done_slot_;
  std::vector<unsigned char> gap_applied_;
  std::vector<unsigned char> blocked_;
  std::vector<Addr> out_addr_;        ///< outstanding request address
  std::vector<AccessType> out_type_;  ///< outstanding request access type
  std::vector<mem::PrivateCacheHierarchy> caches_;
  std::vector<bus::PendingBuffers> buffers_;
};

}  // namespace psllc::core

#endif  // PSLLC_CORE_SLOT_BODY_H_
