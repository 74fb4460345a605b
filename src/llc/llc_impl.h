// Member definitions of llc::BasicPartitionedLlc. Included at the bottom
// of llc.h only — the bodies are shared verbatim by every backend
// instantiation (the virtual conformance path and the kernel's
// devirtualized concrete paths), which is what keeps the two bit-identical
// by construction.
#ifndef PSLLC_LLC_LLC_IMPL_H_
#define PSLLC_LLC_LLC_IMPL_H_

#ifndef PSLLC_LLC_LLC_H_
#error "llc_impl.h must be included via llc/llc.h"
#endif

#include <utility>

#include "common/log.h"
#include "common/rng.h"
#include "mem/replacement.h"

namespace psllc::llc {

template <typename Memory>
BasicPartitionedLlc<Memory>::BasicPartitionedLlc(const LlcConfig& config,
                                                 PartitionProgram program,
                                                 ContentionMode mode,
                                                 int num_cores, Memory& memory)
    : config_(config),
      program_(std::move(program)),
      mode_(mode),
      memory_(&memory),
      sequencer_(num_cores, num_cores),
      pending_(static_cast<std::size_t>(num_cores)),
      core_drain_busy_(static_cast<std::size_t>(num_cores), 0) {
  config_.validate();
  PSLLC_CONFIG_CHECK(num_cores > 0, "need >=1 core");
  PSLLC_CONFIG_CHECK(program_.num_modes() > 0, "partition program is empty");
  PSLLC_CONFIG_CHECK(
      program_.geometry().num_sets == config_.geometry.num_sets &&
          program_.geometry().num_ways == config_.geometry.num_ways &&
          program_.geometry().line_bytes == config_.geometry.line_bytes,
      "partition program geometry differs from LLC geometry");
  sets_.reserve(static_cast<std::size_t>(config_.geometry.num_sets));
  entry_states_.reserve(static_cast<std::size_t>(config_.geometry.num_sets));
  for (int s = 0; s < config_.geometry.num_sets; ++s) {
    sets_.emplace_back(config_.geometry.num_ways,
                       mem::make_replacement_policy(
                           config_.replacement, config_.geometry.num_ways,
                           mix_seed(config_.seed,
                                    static_cast<std::uint64_t>(s), 0x11c)));
    entry_states_.emplace_back(
        static_cast<std::size_t>(config_.geometry.num_ways));
  }
}

template <typename Memory>
BasicPartitionedLlc<Memory>::BasicPartitionedLlc(const LlcConfig& config,
                                                 PartitionMap partitions,
                                                 ContentionMode mode,
                                                 int num_cores, Memory& memory)
    : BasicPartitionedLlc(config, PartitionProgram(std::move(partitions)),
                          mode, num_cores, memory) {}

template <typename Memory>
int BasicPartitionedLlc<Memory>::partition_of_checked(CoreId core) const {
  const int pid = partitions().partition_of(core);
  PSLLC_ASSERT(pid >= 0, to_string(core) << " has no LLC partition");
  return pid;
}

template <typename Memory>
mem::CacheSet& BasicPartitionedLlc<Memory>::set_at(int physical_set) {
  PSLLC_ASSERT(physical_set >= 0 && physical_set < config_.geometry.num_sets,
               "set " << physical_set);
  return sets_[static_cast<std::size_t>(physical_set)];
}

template <typename Memory>
const mem::CacheSet& BasicPartitionedLlc<Memory>::set_at(
    int physical_set) const {
  PSLLC_ASSERT(physical_set >= 0 && physical_set < config_.geometry.num_sets,
               "set " << physical_set);
  return sets_[static_cast<std::size_t>(physical_set)];
}

template <typename Memory>
typename BasicPartitionedLlc<Memory>::EntryState&
BasicPartitionedLlc<Memory>::entry_state(int physical_set, int way) {
  return entry_states_[static_cast<std::size_t>(physical_set)]
                      [static_cast<std::size_t>(way)];
}

template <typename Memory>
const typename BasicPartitionedLlc<Memory>::EntryState&
BasicPartitionedLlc<Memory>::entry_state(int physical_set, int way) const {
  return entry_states_[static_cast<std::size_t>(physical_set)]
                      [static_cast<std::size_t>(way)];
}

template <typename Memory>
int BasicPartitionedLlc<Memory>::find_way_raw(const PartitionSpec& spec,
                                              int physical_set,
                                              LineAddr line) const {
  const mem::CacheSet& set = set_at(physical_set);
  for (int w = spec.first_way; w < spec.first_way + spec.num_ways; ++w) {
    if (set.way(w).valid() && set.way(w).line == line) {
      return w;
    }
  }
  return -1;
}

template <typename Memory>
int BasicPartitionedLlc<Memory>::find_free_way(const PartitionSpec& spec,
                                               int physical_set) const {
  const mem::CacheSet& set = set_at(physical_set);
  for (int w = spec.first_way; w < spec.first_way + spec.num_ways; ++w) {
    if (!set.way(w).valid() && !slot_frozen(physical_set, w)) {
      return w;
    }
  }
  return -1;
}

template <typename Memory>
int BasicPartitionedLlc<Memory>::count_free_ways(const PartitionSpec& spec,
                                                 int physical_set) const {
  const mem::CacheSet& set = set_at(physical_set);
  int count = 0;
  for (int w = spec.first_way; w < spec.first_way + spec.num_ways; ++w) {
    count += (!set.way(w).valid() && !slot_frozen(physical_set, w)) ? 1 : 0;
  }
  return count;
}

template <typename Memory>
int BasicPartitionedLlc<Memory>::count_pending_invals(
    const PartitionSpec& spec, int physical_set) const {
  // Draining entries count as supply too: the drain frees them, and the
  // fence (which cannot outlast the drain) unfreezes their slots.
  int count = 0;
  for (int w = spec.first_way; w < spec.first_way + spec.num_ways; ++w) {
    const EntryState& state = entry_state(physical_set, w);
    count += (state.pending_inval || state.draining) ? 1 : 0;
  }
  return count;
}

template <typename Memory>
int BasicPartitionedLlc<Memory>::count_pending_requests(
    int partition, int physical_set) const {
  int count = 0;
  for (const auto& pending : pending_) {
    if (pending && pending->partition == partition &&
        pending->physical_set == physical_set) {
      ++count;
    }
  }
  return count;
}

template <typename Memory>
bool BasicPartitionedLlc<Memory>::may_allocate(SetKey key, CoreId core) const {
  if (mode_ == ContentionMode::kBestEffort) {
    return true;
  }
  // Set sequencer: FIFO order. A core may allocate iff nobody is queued
  // (no contention so far) or it is at the head of the queue.
  return !sequencer_.has_queue(key) || sequencer_.is_head(key, core);
}

template <typename Memory>
RequestOutcome BasicPartitionedLlc<Memory>::handle_request(CoreId core,
                                                           LineAddr line,
                                                           Cycle now,
                                                           AccessType access) {
  if (is_write(access)) {
    // Writing a line that other cores privately cache needs a coherence
    // protocol, which the paper's model excludes (tasks are data-disjoint).
    const int other_sharers = directory_.sharer_count(line) -
                              (directory_.is_shared_by(line, core) ? 1 : 0);
    if (other_sharers > 0) {
      ++stats_.shared_write_flags;
      PSLLC_WARN("write by " << to_string(core) << " to line 0x" << std::hex
                             << line << std::dec << " shared by "
                             << other_sharers
                             << " other core(s) — outside the paper's "
                                "data-disjoint model");
    }
  }
  const int pid = partition_of_checked(core);
  const PartitionSpec& spec = partitions().spec(pid);
  const int pset = spec.map_set(line);
  PSLLC_AUDIT(spec.contains_set(pset),
              "mapped set " << pset << " escapes partition " << pid << " "
                            << spec.to_string());
  const SetKey key{pid, pset};
  mem::CacheSet& set = set_at(pset);

  auto& pending = pending_[static_cast<std::size_t>(core.value)];
  if (pending) {
    PSLLC_ASSERT(pending->line == line,
                 to_string(core)
                     << " retried a different line: pending 0x" << std::hex
                     << pending->line << " vs 0x" << line
                     << " (one outstanding request per core)");
  }

  // --- hit path --- (draining entries are on their way out of the cache
  // and must not serve hits: the requester waits for the fresh fill)
  const int hit_way = find_way_raw(spec, pset, line);
  if (hit_way >= 0 && !entry_state(pset, hit_way).pending_inval &&
      !entry_state(pset, hit_way).draining) {
    set.touch(hit_way);
    if (!directory_.is_shared_by(line, core)) {
      directory_.add_sharer(line, core);
    }
    if (pending) {
      complete_pending(core, key);
    }
    ++stats_.hit_presentations;
    return RequestOutcome{RequestOutcome::Status::kHit, std::nullopt};
  }

  // --- miss path ---
  if (!pending) {
    pending = Pending{line, pid, pset, now};
  }

  RequestOutcome outcome;
  // One eviction attempt per presentation, then (re-)check allocation: an
  // eviction of an unshared victim frees the entry within the slot.
  bool eviction_attempted = false;
  for (;;) {
    // Allocation requires a free way, permission from the contention mode,
    // and no stale copy of the same line still draining out of the set
    // (pending invalidation) — nor out of a pre-transition location
    // elsewhere in the cache (draining_lines_).
    if (find_free_way(spec, pset) >= 0 && may_allocate(key, core) &&
        find_way_raw(spec, pset, line) < 0 &&
        draining_lines_.find(line) == draining_lines_.end()) {
      const int way = find_free_way(spec, pset);
      PSLLC_AUDIT(spec.contains_way(way),
                  "allocated way " << way << " escapes partition " << pid
                                   << " " << spec.to_string());
      set.insert(line, way, mem::LineState::kClean);
      directory_.add_sharer(line, core);
      // Fetch from the backing store; latency is absorbed by the slot
      // (validated by the system configuration against the backend's
      // worst_case_latency()).
      (void)memory_->read(line, now);
      // Steal accounting: did we allocate past an older waiter?
      for (const auto& other : pending_) {
        if (other && other->partition == pid && other->physical_set == pset &&
            other->line != line &&
            other->first_presented < pending->first_presented) {
          ++stats_.steals;
          break;
        }
      }
      complete_pending(core, key);
      ++stats_.fills;
      outcome.status = RequestOutcome::Status::kFilled;
      return outcome;
    }
    if (eviction_attempted) {
      break;
    }
    eviction_attempted = true;

    // Enqueue in the sequencer before deciding on evictions, so arrival
    // order is recorded on the first blocked presentation.
    if (mode_ == ContentionMode::kSetSequencer &&
        !sequencer_.is_queued(key, core)) {
      sequencer_.enqueue(key, core);
    }

    const int demand = count_pending_requests(pid, pset);
    const int supply =
        count_free_ways(spec, pset) + count_pending_invals(spec, pset);
    if (supply >= demand) {
      break;  // enough entries already free or on their way
    }
    // Select a victim among valid, not-already-pending ways of this
    // partition.
    std::vector<bool> eligible(
        static_cast<std::size_t>(config_.geometry.num_ways), false);
    bool any = false;
    for (int w = spec.first_way; w < spec.first_way + spec.num_ways; ++w) {
      if (set.way(w).valid() && !entry_state(pset, w).pending_inval &&
          !entry_state(pset, w).draining) {
        eligible[static_cast<std::size_t>(w)] = true;
        any = true;
      }
    }
    if (!any) {
      break;  // every line is already being evicted
    }
    const int victim = set.select_victim(eligible);
    PSLLC_ASSERT(victim >= 0, "victim selection failed with eligible ways");
    PSLLC_AUDIT(spec.contains_way(victim),
                "victim way " << victim << " escapes partition " << pid << " "
                              << spec.to_string());
    const LineAddr victim_line = set.way(victim).line;
    const std::vector<CoreId> owners = directory_.sharers(victim_line);
    ++stats_.evictions_started;
    if (owners.empty()) {
      // No private copies: the entry is reusable within this slot; dirty
      // data drains to DRAM off the critical path.
      if (set.way(victim).dirty()) {
        (void)memory_->write(victim_line, now);
      }
      set.invalidate(victim);
      ++stats_.immediate_frees;
      continue;  // re-check allocation with the freed way
    }
    entry_state(pset, victim).pending_inval = true;
    entry_state(pset, victim).pending_acks = static_cast<int>(owners.size());
    outcome.back_invalidation = BackInvalidation{victim_line, owners};
    PSLLC_TRACE("LLC: evicting 0x" << std::hex << victim_line << std::dec
                                   << " (set " << pset << ", way " << victim
                                   << ") for " << to_string(core)
                                   << ", owners=" << owners.size());
    break;
  }

  ++stats_.blocked_presentations;
  outcome.status = RequestOutcome::Status::kBlocked;
  return outcome;
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::complete_pending(CoreId core, SetKey key) {
  auto& pending = pending_[static_cast<std::size_t>(core.value)];
  PSLLC_ASSERT(pending.has_value(), "no pending request to complete");
  if (mode_ == ContentionMode::kSetSequencer &&
      sequencer_.is_queued(key, core)) {
    if (sequencer_.is_head(key, core)) {
      sequencer_.dequeue_head(key, core);
    } else {
      // Satisfied out of order (e.g. hit after another sharer fetched the
      // line); remove from the middle.
      sequencer_.remove(key, core);
    }
  }
  pending.reset();
}

template <typename Memory>
WritebackOutcome BasicPartitionedLlc<Memory>::handle_writeback(
    CoreId core, LineAddr line, bool carries_dirty_data, bool frees_entry,
    Cycle now) {
  if (frees_entry) {
    ++stats_.freeing_writebacks;
    return apply_back_inval_ack(core, line, carries_dirty_data, now);
  }
  ++stats_.voluntary_writebacks;
  const int pid = partition_of_checked(core);
  const PartitionSpec& spec = partitions().spec(pid);
  int pset = spec.map_set(line);
  int way = find_way_raw(spec, pset, line);
  if (way < 0) {
    // A write-back queued before a mode switch may target a line still
    // resident at its pre-transition location.
    const auto [fallback_set, fallback_way] = locate_line(line);
    pset = fallback_set;
    way = fallback_way;
  }
  PSLLC_ASSERT(way >= 0, "voluntary write-back for line 0x"
                             << std::hex << line
                             << " absent from inclusive LLC");
  PSLLC_ASSERT(!entry_state(pset, way).pending_inval,
               "voluntary write-back raced a back-invalidation for line 0x"
                   << std::hex << line
                   << " — should have been upgraded to freeing");
  const bool removed = directory_.remove_sharer(line, core);
  PSLLC_ASSERT(removed, to_string(core) << " wrote back line 0x" << std::hex
                                        << line << " it did not share");
  if (carries_dirty_data) {
    set_at(pset).mark_dirty(way);
  }
  return WritebackOutcome{false};
}

template <typename Memory>
WritebackOutcome BasicPartitionedLlc<Memory>::apply_back_inval_ack(
    CoreId core, LineAddr line, bool dirty_data, Cycle now) {
  const int pid = partition_of_checked(core);
  const PartitionSpec& spec = partitions().spec(pid);
  int pset = spec.map_set(line);
  int way = find_way_raw(spec, pset, line);
  if (way < 0) {
    // Acks for drain invalidations (and for evictions started before a
    // mode switch) may reference pre-transition locations.
    const auto [fallback_set, fallback_way] = locate_line(line);
    pset = fallback_set;
    way = fallback_way;
  }
  PSLLC_ASSERT(way >= 0, "back-invalidation ack for line 0x"
                             << std::hex << line << " not in LLC");
  EntryState& state = entry_state(pset, way);
  PSLLC_ASSERT(state.pending_inval,
               "ack for line 0x" << std::hex << line
                                 << " that is not pending invalidation");
  PSLLC_ASSERT(state.pending_acks > 0, "pending_acks underflow");
  if (state.drain_issued) {
    auto& busy = core_drain_busy_[static_cast<std::size_t>(core.value)];
    PSLLC_ASSERT(busy > 0, "drain ack without an outstanding drain inval");
    --busy;
  }
  const bool removed = directory_.remove_sharer(line, core);
  PSLLC_ASSERT(removed, to_string(core)
                            << " acked line 0x" << std::hex << line
                            << " it did not share");
  mem::CacheSet& set = set_at(pset);
  if (dirty_data) {
    set.mark_dirty(way);
  }
  --state.pending_acks;
  if (state.pending_acks > 0) {
    return WritebackOutcome{false};
  }
  // Last ack: the entry becomes free. Dirty data drains to DRAM.
  PSLLC_ASSERT(directory_.sharer_count(line) == 0,
               "directory still has sharers after the last ack");
  if (state.draining) {
    free_drained_entry(pset, way, now);
  } else {
    if (set.way(way).dirty()) {
      (void)memory_->write(line, now);
    }
    set.invalidate(way);
    state = EntryState{};
  }
  return WritebackOutcome{true};
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::notify_silent_eviction(CoreId core,
                                                         LineAddr line) {
  const bool removed = directory_.remove_sharer(line, core);
  PSLLC_ASSERT(removed, to_string(core)
                            << " silently evicted line 0x" << std::hex << line
                            << " it did not share");
}

template <typename Memory>
WritebackOutcome BasicPartitionedLlc<Memory>::ack_back_invalidation_silent(
    CoreId core, LineAddr line, Cycle now) {
  return apply_back_inval_ack(core, line, /*dirty_data=*/false, now);
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::drop_pending_request(CoreId core) {
  auto& pending = pending_[static_cast<std::size_t>(core.value)];
  if (!pending) {
    return;
  }
  const SetKey key{pending->partition, pending->physical_set};
  if (mode_ == ContentionMode::kSetSequencer &&
      sequencer_.is_queued(key, core)) {
    sequencer_.remove(key, core);
  }
  pending.reset();
}

template <typename Memory>
typename BasicPartitionedLlc<Memory>::EntryView
BasicPartitionedLlc<Memory>::entry(int physical_set, int way) const {
  const mem::CacheSet& set = set_at(physical_set);
  const mem::LineMeta& meta = set.way(way);
  EntryView view;
  view.valid = meta.valid();
  if (view.valid) {
    view.line = meta.line;
    view.dirty = meta.dirty();
    view.pending_inval = entry_state(physical_set, way).pending_inval;
    view.pending_acks = entry_state(physical_set, way).pending_acks;
    view.sharers = directory_.sharers(meta.line);
  }
  return view;
}

template <typename Memory>
int BasicPartitionedLlc<Memory>::find_way(CoreId core, LineAddr line) const {
  const int pid = partition_of_checked(core);
  const PartitionSpec& spec = partitions().spec(pid);
  return find_way_raw(spec, spec.map_set(line), line);
}

template <typename Memory>
int BasicPartitionedLlc<Memory>::free_ways(CoreId core, LineAddr line) const {
  const int pid = partition_of_checked(core);
  const PartitionSpec& spec = partitions().spec(pid);
  return count_free_ways(spec, spec.map_set(line));
}

template <typename Memory>
SetKey BasicPartitionedLlc<Memory>::key_for(CoreId core, LineAddr line) const {
  const int pid = partition_of_checked(core);
  return SetKey{pid, partitions().spec(pid).map_set(line)};
}

template <typename Memory>
bool BasicPartitionedLlc<Memory>::has_pending_request(CoreId core) const {
  return pending_[static_cast<std::size_t>(core.value)].has_value();
}

template <typename Memory>
LineAddr BasicPartitionedLlc<Memory>::pending_line(CoreId core) const {
  const auto& pending = pending_[static_cast<std::size_t>(core.value)];
  PSLLC_ASSERT(pending.has_value(), "no pending request");
  return pending->line;
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::preload(LineAddr line,
                                          const std::vector<CoreId>& sharers,
                                          bool dirty) {
  PSLLC_ASSERT(!sharers.empty() || true, "");
  // Map through the partition of the first sharer, or partition 0 when the
  // line has no private copies.
  const int pid = sharers.empty() ? 0 : partition_of_checked(sharers.front());
  const PartitionSpec& spec = partitions().spec(pid);
  const int pset = spec.map_set(line);
  PSLLC_ASSERT(find_way_raw(spec, pset, line) < 0,
               "preload of already-present line");
  const int way = find_free_way(spec, pset);
  PSLLC_ASSERT(way >= 0, "preload into a full set");
  set_at(pset).insert(line, way,
                      dirty ? mem::LineState::kDirty : mem::LineState::kClean);
  for (CoreId c : sharers) {
    PSLLC_ASSERT(partitions().partition_of(c) == pid,
                 "preload sharers must share one partition");
    directory_.add_sharer(line, c);
  }
}

// --- mode-transition protocol ------------------------------------------

template <typename Memory>
std::pair<int, int> BasicPartitionedLlc<Memory>::locate_line(
    LineAddr line) const {
  for (int s = 0; s < config_.geometry.num_sets; ++s) {
    const mem::CacheSet& set = set_at(s);
    for (int w = 0; w < config_.geometry.num_ways; ++w) {
      if (set.way(w).valid() && set.way(w).line == line) {
        return {s, w};
      }
    }
  }
  return {-1, -1};
}

template <typename Memory>
bool BasicPartitionedLlc<Memory>::entry_compatible(int physical_set,
                                                   int way) const {
  const mem::LineMeta& meta = set_at(physical_set).way(way);
  PSLLC_ASSERT(meta.valid(), "compatibility check on an invalid entry");
  const PartitionMap& map = partitions();
  for (int p = 0; p < map.num_partitions(); ++p) {
    const PartitionSpec& spec = map.spec(p);
    if (!spec.contains_set(physical_set) || !spec.contains_way(way)) {
      continue;
    }
    if (spec.map_set(meta.line) != physical_set) {
      return false;  // placed where the new mapping would not place it
    }
    for (const CoreId sharer : directory_.sharers(meta.line)) {
      if (map.partition_of(sharer) != p) {
        return false;  // privately held by a core outside this partition
      }
    }
    return true;
  }
  return false;  // no partition covers this slot in the new mode
}

template <typename Memory>
std::vector<BackInvalidation> BasicPartitionedLlc<Memory>::advance_transition(
    Cycle slot_start) {
  std::vector<BackInvalidation> out;
  if (program_.is_static() && !transition_active_) {
    return out;  // static programs never transition (the common fast path)
  }
  if (!transition_active_) {
    const Cycle epoch = next_transition_epoch();
    if (epoch == kNoCycle || slot_start < epoch) {
      return out;
    }
    begin_transition(slot_start);
  }
  pump_drain(slot_start, out);
  if (drain_remaining_ == 0) {
    complete_transition(slot_start);
  }
  return out;
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::begin_transition(Cycle slot_start) {
  ++mode_index_;
  ++stats_.repartitions;
  transition_active_ = true;
  transition_windows_.emplace_back(slot_start, kNoCycle);

  // Freeze every slot whose covering (rectangle, sharers) assignment
  // changed between the two modes; arriving ways become allocatable only
  // at the drain fence.
  const PartitionMap& from = program_.mode(mode_index_ - 1).map;
  const PartitionMap& to = program_.mode(mode_index_).map;
  frozen_.assign(static_cast<std::size_t>(config_.geometry.num_sets) *
                     static_cast<std::size_t>(config_.geometry.num_ways),
                 false);
  auto covering = [](const PartitionMap& map, int s, int w) {
    for (int p = 0; p < map.num_partitions(); ++p) {
      if (map.spec(p).contains_set(s) && map.spec(p).contains_way(w)) {
        return p;
      }
    }
    return -1;
  };
  auto assignment_changed = [&](int s, int w) {
    const int fp = covering(from, s, w);
    const int tp = covering(to, s, w);
    if ((fp < 0) != (tp < 0)) {
      return true;
    }
    if (fp < 0) {
      return false;  // uncovered in both modes
    }
    const PartitionSpec& fs = from.spec(fp);
    const PartitionSpec& ts = to.spec(tp);
    return fs.first_set != ts.first_set || fs.num_sets != ts.num_sets ||
           fs.first_way != ts.first_way || fs.num_ways != ts.num_ways ||
           fs.mapping != ts.mapping || from.sharers(fp) != to.sharers(tp);
  };
  for (int s = 0; s < config_.geometry.num_sets; ++s) {
    for (int w = 0; w < config_.geometry.num_ways; ++w) {
      if (assignment_changed(s, w)) {
        frozen_[static_cast<std::size_t>(s) *
                    static_cast<std::size_t>(config_.geometry.num_ways) +
                static_cast<std::size_t>(w)] = true;
      }
    }
  }

  // Classify residents: incompatible lines must drain. Scan order (set-
  // major, way-minor) fixes the drain issue order deterministically.
  drain_queue_.clear();
  draining_lines_.clear();
  drain_remaining_ = 0;
  for (int s = 0; s < config_.geometry.num_sets; ++s) {
    for (int w = 0; w < config_.geometry.num_ways; ++w) {
      if (!set_at(s).way(w).valid() || entry_compatible(s, w)) {
        continue;
      }
      EntryState& state = entry_state(s, w);
      state.draining = true;
      // Evictions already in flight keep their issued acks; the drain
      // only adopts them (drain_issued stays false — their owners were
      // charged by the original eviction, not the drain serializer).
      drain_queue_.emplace_back(s, w);
      draining_lines_.insert(set_at(s).way(w).line);
      ++drain_remaining_;
    }
  }

  // The mode's partition ids renumber SetKeys: reset ordering state and
  // re-anchor every pending request under the new map. Blocked cores
  // re-enqueue deterministically at their next presentation.
  sequencer_.clear();
  for (std::size_t c = 0; c < pending_.size(); ++c) {
    auto& pending = pending_[c];
    if (!pending) {
      continue;
    }
    const int pid = partition_of_checked(CoreId{static_cast<int>(c)});
    pending->partition = pid;
    pending->physical_set = partitions().spec(pid).map_set(pending->line);
  }
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::pump_drain(
    Cycle slot_start, std::vector<BackInvalidation>& out) {
  for (const auto& [s, w] : drain_queue_) {
    const mem::CacheSet& set = set_at(s);
    EntryState& state = entry_state(s, w);
    if (!set.way(w).valid() || !state.draining) {
      continue;  // already freed by an earlier ack or pump
    }
    if (state.pending_inval) {
      continue;  // invalidation in flight (drain-issued or pre-transition)
    }
    const LineAddr line = set.way(w).line;
    const std::vector<CoreId> owners = directory_.sharers(line);
    if (owners.empty()) {
      // No private copies: free within this slot; dirty data drains
      // through the bounded write queue off the critical path.
      free_drained_entry(s, w, slot_start);
      continue;
    }
    // Serialize drain invalidations per owner core: a core is asked for at
    // most one outstanding drain write-back at a time, so the drain can
    // never flood a core's pending-writeback buffer.
    bool owners_free = true;
    for (const CoreId owner : owners) {
      owners_free = owners_free &&
                    core_drain_busy_[static_cast<std::size_t>(
                        owner.value)] == 0;
    }
    if (!owners_free) {
      continue;
    }
    state.pending_inval = true;
    state.pending_acks = static_cast<int>(owners.size());
    state.drain_issued = true;
    for (const CoreId owner : owners) {
      ++core_drain_busy_[static_cast<std::size_t>(owner.value)];
    }
    ++stats_.drain_back_invals;
    out.push_back(BackInvalidation{line, owners});
  }
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::free_drained_entry(int physical_set,
                                                     int way, Cycle now) {
  mem::CacheSet& set = set_at(physical_set);
  const LineAddr line = set.way(way).line;
  if (set.way(way).dirty()) {
    (void)memory_->write(line, now);
    ++stats_.drain_writebacks;
    // Drain write-backs go through the same bounded write queue as demand
    // traffic; the per-core serialization above keeps them within it.
    PSLLC_AUDIT(memory_->pending_queue_depth() <=
                    memory_->config().wq_capacity,
                "drain write-backs overflowed the write queue: "
                    << memory_->pending_queue_depth() << " > "
                    << memory_->config().wq_capacity);
  }
  set.invalidate(way);
  entry_state(physical_set, way) = EntryState{};
  draining_lines_.erase(line);
  PSLLC_ASSERT(drain_remaining_ > 0, "drain_remaining underflow");
  --drain_remaining_;
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::complete_transition(Cycle slot_start) {
  PSLLC_ASSERT(transition_active_ && drain_remaining_ == 0,
               "fence before the drain finished");
  frozen_.clear();
  drain_queue_.clear();
  PSLLC_ASSERT(draining_lines_.empty(),
               "drained lines left behind at the fence");
  transition_active_ = false;
  transition_windows_.back().second = slot_start;
#ifdef PSLLC_AUDIT_ENABLED
  // Containment after the fence: every resident line (modulo evictions
  // still in flight) sits inside its current mode's rectangle.
  for (int s = 0; s < config_.geometry.num_sets; ++s) {
    for (int w = 0; w < config_.geometry.num_ways; ++w) {
      if (!set_at(s).way(w).valid() || entry_state(s, w).pending_inval) {
        continue;
      }
      PSLLC_AUDIT(entry_compatible(s, w),
                  "line 0x" << std::hex << set_at(s).way(w).line << std::dec
                            << " at set " << s << " way " << w
                            << " outside its mode-" << mode_index_
                            << " rectangle after the drain fence");
    }
  }
#endif
}

template <typename Memory>
bool BasicPartitionedLlc<Memory>::overlaps_transition(Cycle a,
                                                      Cycle b) const {
  for (const auto& [begin, end] : transition_windows_) {
    if (begin <= b && (end == kNoCycle || end >= a)) {
      return true;
    }
  }
  return false;
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::check_invariants() const {
  for (int s = 0; s < config_.geometry.num_sets; ++s) {
    const mem::CacheSet& set = set_at(s);
    for (int w = 0; w < config_.geometry.num_ways; ++w) {
      const EntryState& state = entry_state(s, w);
      if (!set.way(w).valid()) {
        PSLLC_ASSERT(!state.pending_inval && state.pending_acks == 0,
                     "invalid entry with pending eviction state at set "
                         << s << " way " << w);
        continue;
      }
      if (state.pending_inval) {
        PSLLC_ASSERT(state.pending_acks > 0,
                     "pending invalidation without outstanding acks");
        PSLLC_ASSERT(state.pending_acks ==
                         directory_.sharer_count(set.way(w).line),
                     "pending_acks diverged from directory sharers for "
                     "line 0x" << std::hex << set.way(w).line);
      } else {
        PSLLC_ASSERT(state.pending_acks == 0,
                     "acks outstanding without pending invalidation");
      }
    }
  }
  // Every sequencer waiter must have a matching pending request.
  for (std::size_t c = 0; c < pending_.size(); ++c) {
    const auto& pending = pending_[c];
    if (!pending) {
      continue;
    }
    const SetKey key{pending->partition, pending->physical_set};
    if (mode_ == ContentionMode::kSetSequencer) {
      // A pending request is queued only after its first blocked
      // presentation; being unqueued is legal, double-queuing is not
      // (enforced by SetSequencer::enqueue).
      (void)key;
    }
  }
}

}  // namespace psllc::llc

#endif  // PSLLC_LLC_LLC_IMPL_H_
