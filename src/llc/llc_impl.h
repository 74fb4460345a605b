// Member definitions of llc::BasicPartitionedLlc. Included at the bottom
// of llc.h only — the bodies are shared verbatim by every backend
// instantiation (the virtual path behind core::System and the
// devirtualized concrete paths sim::replay() runs), which is what keeps
// the two bit-identical by construction.
#ifndef PSLLC_LLC_LLC_IMPL_H_
#define PSLLC_LLC_LLC_IMPL_H_

#ifndef PSLLC_LLC_LLC_H_
#error "llc_impl.h must be included via llc/llc.h"
#endif

#include <algorithm>
#include <bit>
#include <utility>

#include "common/log.h"
#include "common/rng.h"

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
  PSLLC_CONFIG_CHECK(num_cores <= kMaxCores,
                     "LLC has " << num_cores << " cores, more than the "
                                << kMaxCores << "-core directory limit");
  PSLLC_CONFIG_CHECK(program_.num_modes() > 0, "partition program is empty");
  PSLLC_CONFIG_CHECK(
      program_.geometry().num_sets == config_.geometry.num_sets &&
          program_.geometry().num_ways == config_.geometry.num_ways &&
          program_.geometry().line_bytes == config_.geometry.line_bytes,
      "partition program geometry differs from LLC geometry");
  const auto entries =
      static_cast<std::size_t>(config_.geometry.capacity_lines());
  tags_.resize(entries);
  entry_states_.resize(entries);
  sets_.reserve(static_cast<std::size_t>(config_.geometry.num_sets));
  for (int s = 0; s < config_.geometry.num_sets; ++s) {
    sets_.push_back(SetState{
        .policy = mem::ReplacementPolicy(
            config_.replacement, config_.geometry.num_ways,
            mix_seed(config_.seed, static_cast<std::uint64_t>(s), 0x11c))});
  }
  rebuild_routes();
}

template <typename Memory>
BasicPartitionedLlc<Memory>::BasicPartitionedLlc(const LlcConfig& config,
                                                 PartitionMap partitions,
                                                 ContentionMode mode,
                                                 int num_cores, Memory& memory)
    : BasicPartitionedLlc(config, PartitionProgram(std::move(partitions)),
                          mode, num_cores, memory) {}

template <typename Memory>
const typename BasicPartitionedLlc<Memory>::Route&
BasicPartitionedLlc<Memory>::route_of(CoreId core) const {
  PSLLC_ASSERT(core.valid() &&
                   static_cast<std::size_t>(core.value) < routes_.size() &&
                   routes_[static_cast<std::size_t>(core.value)].pid >= 0,
               to_string(core) << " has no LLC partition");
  return routes_[static_cast<std::size_t>(core.value)];
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::rebuild_routes() {
  const PartitionMap& map = partitions();
  routes_.assign(pending_.size(), Route{});
  for (std::size_t c = 0; c < routes_.size(); ++c) {
    const int pid = map.partition_of(CoreId{static_cast<int>(c)});
    if (pid >= 0) {
      routes_[c] = Route{pid, map.spec(pid)};
    }
  }
}

template <typename Memory>
typename BasicPartitionedLlc<Memory>::SetState&
BasicPartitionedLlc<Memory>::set_at(int physical_set) {
  PSLLC_ASSERT(physical_set >= 0 && physical_set < config_.geometry.num_sets,
               "set " << physical_set);
  return sets_[static_cast<std::size_t>(physical_set)];
}

template <typename Memory>
const typename BasicPartitionedLlc<Memory>::SetState&
BasicPartitionedLlc<Memory>::set_at(int physical_set) const {
  PSLLC_ASSERT(physical_set >= 0 && physical_set < config_.geometry.num_sets,
               "set " << physical_set);
  return sets_[static_cast<std::size_t>(physical_set)];
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::insert_line(int physical_set, int way,
                                              LineAddr line, bool dirty) {
  SetState& set = set_at(physical_set);
  const LineAddr* tags = tags_.data() + index(physical_set, 0);
  PSLLC_ASSERT((set.valid & mem::way_bit(way)) == 0,
               "way " << way << " already holds line 0x" << std::hex
                      << tags[way]);
  for (mem::WayMask m = set.valid; m != 0; m &= m - 1) {
    PSLLC_ASSERT(tags[mem::lowest_way(m)] != line,
                 "line 0x" << std::hex << line << " already present in set");
  }
  tags_[index(physical_set, way)] = line;
  set.valid |= mem::way_bit(way);
  if (dirty) {
    set.dirty |= mem::way_bit(way);
  }
  set.policy.on_insert(way);
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::invalidate_way(int physical_set, int way) {
  SetState& set = set_at(physical_set);
  const mem::WayMask keep = ~mem::way_bit(way);
  set.valid &= keep;
  set.dirty &= keep;
  set.pending &= keep;
  set.draining &= keep;
  set.policy.on_invalidate(way);
  entry_state(physical_set, way) = EntryState{};
}

template <typename Memory>
int BasicPartitionedLlc<Memory>::find_way_raw(const PartitionSpec& spec,
                                              int physical_set,
                                              LineAddr line) const {
  const LineAddr* tags = tags_.data() + index(physical_set, 0);
  for (mem::WayMask m = set_at(physical_set).valid & spec.way_mask(); m != 0;
       m &= m - 1) {
    const int w = mem::lowest_way(m);
    if (tags[w] == line) {
      return w;
    }
  }
  return -1;
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
  return sequencer_.may_claim(key, core);
}

template <typename Memory>
RequestOutcome BasicPartitionedLlc<Memory>::handle_request(CoreId core,
                                                           LineAddr line,
                                                           Cycle now,
                                                           AccessType access) {
  if (is_write(access)) {
    // Writing a line that other cores privately cache needs a coherence
    // protocol, which the paper's model excludes (tasks are data-disjoint).
    const int other_sharers =
        std::popcount(directory_.sharer_mask(line) & ~core_bit(core));
    if (other_sharers > 0) {
      ++stats_.shared_write_flags;
      PSLLC_WARN("write by " << to_string(core) << " to line 0x" << std::hex
                             << line << std::dec << " shared by "
                             << other_sharers
                             << " other core(s) — outside the paper's "
                                "data-disjoint model");
    }
  }
  const auto& [pid, spec] = route_of(core);
  const int pset = spec.map_set(line);
  PSLLC_AUDIT(spec.contains_set(pset),
              "mapped set " << pset << " escapes partition " << pid << " "
                            << spec.to_string());
  const SetKey key{pid, pset};
  SetState& set = set_at(pset);

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
  const mem::WayMask leaving = set.pending | set.draining;
  if (hit_way >= 0 && (leaving & mem::way_bit(hit_way)) == 0) {
    set.policy.on_access(hit_way);
    (void)directory_.add_sharer_if_absent(line, core);
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
    // elsewhere in the cache (draining_lines_). The hit probe answers the
    // stale-copy question on every pass: a present line's way is pending
    // invalidation or draining, so it is never the victim freed below.
    const mem::WayMask free = free_way_mask(spec, pset);
    if (hit_way < 0 && free != 0 && may_allocate(key, core) &&
        draining_lines_.find(line) == draining_lines_.end()) {
      const int way = mem::lowest_way(free);
      PSLLC_AUDIT(spec.contains_way(way),
                  "allocated way " << way << " escapes partition " << pid
                                   << " " << spec.to_string());
      insert_line(pset, way, line, /*dirty=*/false);
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
    if (mode_ == ContentionMode::kSetSequencer) {
      (void)sequencer_.enqueue_if_absent(key, core);
    }

    // Entries pending invalidation or draining count as supply: each is
    // freed by its last ack or by the drain (and the drain fence, which
    // cannot outlast the drain, unfreezes drained slots).
    const mem::WayMask leaving_here =
        (set.pending | set.draining) & spec.way_mask();
    const int demand = count_pending_requests(pid, pset);
    const int supply = std::popcount(free) + std::popcount(leaving_here);
    if (supply >= demand) {
      break;  // enough entries already free or on their way
    }
    // Select a victim among valid ways of this partition that are not
    // already leaving.
    const mem::WayMask eligible =
        set.valid & spec.way_mask() & ~leaving_here;
    if (eligible == 0) {
      break;  // every line is already being evicted
    }
    const int victim = set.policy.select_victim(eligible);
    PSLLC_ASSERT(victim >= 0, "victim selection failed with eligible ways");
    PSLLC_AUDIT(spec.contains_way(victim),
                "victim way " << victim << " escapes partition " << pid << " "
                              << spec.to_string());
    const LineAddr victim_line = tag(pset, victim);
    const CoreMask owners = directory_.sharer_mask(victim_line);
    ++stats_.evictions_started;
    if (owners == 0) {
      // No private copies: the entry is reusable within this slot; dirty
      // data drains to DRAM off the critical path.
      if ((set.dirty & mem::way_bit(victim)) != 0) {
        (void)memory_->write(victim_line, now);
      }
      invalidate_way(pset, victim);
      ++stats_.immediate_frees;
      continue;  // re-check allocation with the freed way
    }
    set.pending |= mem::way_bit(victim);
    entry_state(pset, victim).pending_acks = std::popcount(owners);
    outcome.back_invalidation = BackInvalidation{victim_line, owners};
    PSLLC_TRACE("LLC: evicting 0x" << std::hex << victim_line << std::dec
                                   << " (set " << pset << ", way " << victim
                                   << ") for " << to_string(core)
                                   << ", owners=" << std::popcount(owners));
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
  if (mode_ == ContentionMode::kSetSequencer) {
    // Pops the head, or erases a core satisfied out of order (e.g. a hit
    // after another sharer fetched the line); unqueued cores are untouched.
    sequencer_.release(key, core);
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
  const PartitionSpec& spec = route_of(core).spec;
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
  SetState& set = set_at(pset);
  PSLLC_ASSERT((set.pending & mem::way_bit(way)) == 0,
               "voluntary write-back raced a back-invalidation for line 0x"
                   << std::hex << line
                   << " — should have been upgraded to freeing");
  const bool removed = directory_.remove_sharer(line, core);
  PSLLC_ASSERT(removed, to_string(core) << " wrote back line 0x" << std::hex
                                        << line << " it did not share");
  if (carries_dirty_data) {
    set.dirty |= mem::way_bit(way);
  }
  return WritebackOutcome{false};
}

template <typename Memory>
WritebackOutcome BasicPartitionedLlc<Memory>::apply_back_inval_ack(
    CoreId core, LineAddr line, bool dirty_data, Cycle now) {
  const PartitionSpec& spec = route_of(core).spec;
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
  SetState& set = set_at(pset);
  EntryState& state = entry_state(pset, way);
  PSLLC_ASSERT((set.pending & mem::way_bit(way)) != 0,
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
  if (dirty_data) {
    set.dirty |= mem::way_bit(way);
  }
  --state.pending_acks;
  if (state.pending_acks > 0) {
    return WritebackOutcome{false};
  }
  // Last ack: the entry becomes free. Dirty data drains to DRAM.
  PSLLC_ASSERT(directory_.sharer_count(line) == 0,
               "directory still has sharers after the last ack");
  if ((set.draining & mem::way_bit(way)) != 0) {
    free_drained_entry(pset, way, now);
  } else {
    if ((set.dirty & mem::way_bit(way)) != 0) {
      (void)memory_->write(line, now);
    }
    invalidate_way(pset, way);
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
  if (mode_ == ContentionMode::kSetSequencer) {
    sequencer_.release(key, core);
  }
  pending.reset();
}

template <typename Memory>
typename BasicPartitionedLlc<Memory>::EntryView
BasicPartitionedLlc<Memory>::entry(int physical_set, int way) const {
  const SetState& set = set_at(physical_set);
  PSLLC_ASSERT(way >= 0 && way < config_.geometry.num_ways,
               "way " << way << " out of range [0,"
                      << config_.geometry.num_ways << ")");
  const mem::WayMask bit = mem::way_bit(way);
  EntryView view;
  view.valid = (set.valid & bit) != 0;
  if (view.valid) {
    view.line = tag(physical_set, way);
    view.dirty = (set.dirty & bit) != 0;
    view.pending_inval = (set.pending & bit) != 0;
    view.pending_acks = entry_state(physical_set, way).pending_acks;
    view.sharers = directory_.sharers(view.line);
  }
  return view;
}

template <typename Memory>
int BasicPartitionedLlc<Memory>::find_way(CoreId core, LineAddr line) const {
  const PartitionSpec& spec = route_of(core).spec;
  return find_way_raw(spec, spec.map_set(line), line);
}

template <typename Memory>
int BasicPartitionedLlc<Memory>::free_ways(CoreId core, LineAddr line) const {
  const PartitionSpec& spec = route_of(core).spec;
  return std::popcount(free_way_mask(spec, spec.map_set(line)));
}

template <typename Memory>
SetKey BasicPartitionedLlc<Memory>::key_for(CoreId core, LineAddr line) const {
  const Route& route = route_of(core);
  return SetKey{route.pid, route.spec.map_set(line)};
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
  // Map through the partition of the first sharer, or partition 0 when the
  // line has no private copies.
  const int pid = sharers.empty() ? 0 : route_of(sharers.front()).pid;
  const PartitionSpec& spec = partitions().spec(pid);
  const int pset = spec.map_set(line);
  PSLLC_ASSERT(find_way_raw(spec, pset, line) < 0,
               "preload of already-present line");
  const mem::WayMask free = free_way_mask(spec, pset);
  PSLLC_ASSERT(free != 0, "preload into a full set");
  insert_line(pset, mem::lowest_way(free), line, dirty);
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
    for (mem::WayMask m = set_at(s).valid; m != 0; m &= m - 1) {
      const int w = mem::lowest_way(m);
      if (tag(s, w) == line) {
        return {s, w};
      }
    }
  }
  return {-1, -1};
}

template <typename Memory>
bool BasicPartitionedLlc<Memory>::entry_compatible(int physical_set,
                                                   int way) const {
  PSLLC_ASSERT((set_at(physical_set).valid & mem::way_bit(way)) != 0,
               "compatibility check on an invalid entry");
  const LineAddr line = tag(physical_set, way);
  const PartitionMap& map = partitions();
  for (int p = 0; p < map.num_partitions(); ++p) {
    const PartitionSpec& spec = map.spec(p);
    if (!spec.contains_set(physical_set) || !spec.contains_way(way)) {
      continue;
    }
    if (spec.map_set(line) != physical_set) {
      return false;  // placed where the new mapping would not place it
    }
    for (CoreMask m = directory_.sharer_mask(line); m != 0;
         m &= m - 1) {
      if (map.partition_of(lowest_core(m)) != p) {
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
  rebuild_routes();
  ++stats_.repartitions;
  transition_active_ = true;
  transition_windows_.emplace_back(slot_start, kNoCycle);

  // Freeze every slot whose covering (rectangle, sharers) assignment
  // changed between the two modes; arriving ways become allocatable only
  // at the drain fence.
  const PartitionMap& from = program_.mode(mode_index_ - 1).map;
  const PartitionMap& to = program_.mode(mode_index_).map;
  frozen_.assign(static_cast<std::size_t>(config_.geometry.num_sets), 0);
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
        frozen_[static_cast<std::size_t>(s)] |= mem::way_bit(w);
      }
    }
  }

  // Classify residents: incompatible lines must drain. Scan order (set-
  // major, way-minor) fixes the drain issue order deterministically.
  drain_queue_.clear();
  draining_lines_.clear();
  drain_remaining_ = 0;
  for (int s = 0; s < config_.geometry.num_sets; ++s) {
    SetState& set = set_at(s);
    for (mem::WayMask m = set.valid; m != 0; m &= m - 1) {
      const int w = mem::lowest_way(m);
      if (entry_compatible(s, w)) {
        continue;
      }
      set.draining |= mem::way_bit(w);
      // Evictions already in flight keep their issued acks; the drain
      // only adopts them (drain_issued stays false — their owners were
      // charged by the original eviction, not the drain serializer).
      drain_queue_.emplace_back(s, w);
      draining_lines_.insert(tag(s, w));
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
    const Route& route = route_of(CoreId{static_cast<int>(c)});
    pending->partition = route.pid;
    pending->physical_set = route.spec.map_set(pending->line);
  }
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::pump_drain(
    Cycle slot_start, std::vector<BackInvalidation>& out) {
  for (const auto& [s, w] : drain_queue_) {
    SetState& set = set_at(s);
    const mem::WayMask bit = mem::way_bit(w);
    if ((set.draining & bit) == 0) {
      continue;  // already freed by an earlier ack or pump
    }
    if ((set.pending & bit) != 0) {
      continue;  // invalidation in flight (drain-issued or pre-transition)
    }
    const LineAddr line = tag(s, w);
    const CoreMask owners = directory_.sharer_mask(line);
    if (owners == 0) {
      // No private copies: free within this slot; dirty data drains
      // through the bounded write queue off the critical path.
      free_drained_entry(s, w, slot_start);
      continue;
    }
    // Serialize drain invalidations per owner core: a core is asked for at
    // most one outstanding drain write-back at a time, so the drain can
    // never flood a core's pending-writeback buffer.
    bool owners_free = true;
    for (CoreMask m = owners; m != 0; m &= m - 1) {
      owners_free = owners_free &&
                    core_drain_busy_[static_cast<std::size_t>(
                        lowest_core(m).value)] == 0;
    }
    if (!owners_free) {
      continue;
    }
    set.pending |= bit;
    EntryState& state = entry_state(s, w);
    state.pending_acks = std::popcount(owners);
    state.drain_issued = true;
    for (CoreMask m = owners; m != 0; m &= m - 1) {
      ++core_drain_busy_[static_cast<std::size_t>(lowest_core(m).value)];
    }
    ++stats_.drain_back_invals;
    out.push_back(BackInvalidation{line, owners});
  }
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::free_drained_entry(int physical_set,
                                                     int way, Cycle now) {
  const LineAddr line = tag(physical_set, way);
  if ((set_at(physical_set).dirty & mem::way_bit(way)) != 0) {
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
  invalidate_way(physical_set, way);
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
    const SetState& set = set_at(s);
    for (mem::WayMask m = set.valid & ~set.pending; m != 0; m &= m - 1) {
      const int w = mem::lowest_way(m);
      PSLLC_AUDIT(entry_compatible(s, w),
                  "line 0x" << std::hex << tag(s, w) << std::dec
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
  std::vector<LineAddr> resident;
  for (int s = 0; s < config_.geometry.num_sets; ++s) {
    const SetState& set = set_at(s);
    PSLLC_ASSERT(((set.dirty | set.pending | set.draining) & ~set.valid) == 0,
                 "dirty, pending or draining mask outside the valid ways at "
                 "set " << s);
    for (int w = 0; w < config_.geometry.num_ways; ++w) {
      const EntryState& state = entry_state(s, w);
      const bool pending = (set.pending & mem::way_bit(w)) != 0;
      PSLLC_ASSERT(pending == (state.pending_acks > 0),
                   "pending bit " << pending << " with " << state.pending_acks
                                  << " outstanding acks at set " << s
                                  << " way " << w);
      PSLLC_ASSERT(!state.drain_issued || pending,
                   "drain back-invalidation issued but not pending at set "
                       << s << " way " << w);
      if ((set.valid & mem::way_bit(w)) == 0) {
        continue;
      }
      resident.push_back(tag(s, w));
      if (pending) {
        PSLLC_ASSERT(state.pending_acks == directory_.sharer_count(tag(s, w)),
                     "pending_acks diverged from directory sharers for "
                     "line 0x" << std::hex << tag(s, w));
      }
    }
  }
  // Inclusion: every privately held line is resident in the LLC.
  std::sort(resident.begin(), resident.end());
  directory_.for_each_line([&](LineAddr line, CoreMask mask) {
    PSLLC_ASSERT(std::binary_search(resident.begin(), resident.end(), line),
                 "directory tracks line 0x" << std::hex << line << " (sharers 0x"
                                            << mask
                                            << ") absent from the LLC");
  });
  // Every sequencer waiter must have a matching pending request. Waiters
  // are queued under (active partition, set) keys — the sequencer is
  // cleared when a transition renumbers partitions — so scanning those keys
  // must account for every live queue. A pending request is queued only
  // after its first blocked presentation, so being unqueued is legal.
  const PartitionMap& map = partitions();
  int keys_with_waiters = 0;
  for (int p = 0; p < map.num_partitions(); ++p) {
    const PartitionSpec& spec = map.spec(p);
    for (int s = spec.first_set; s < spec.first_set + spec.num_sets; ++s) {
      const SetKey key{p, s};
      if (!sequencer_.has_queue(key)) {
        continue;
      }
      ++keys_with_waiters;
      for (std::size_t c = 0; c < pending_.size(); ++c) {
        const CoreId core{static_cast<int>(c)};
        if (!sequencer_.is_queued(key, core)) {
          continue;
        }
        const auto& pending = pending_[c];
        PSLLC_ASSERT(pending.has_value() && pending->partition == p &&
                         pending->physical_set == s,
                     to_string(core) << " waits in the sequencer for "
                                        "partition "
                                     << p << " set " << s
                                     << " without a pending request there");
      }
    }
  }
  PSLLC_ASSERT(sequencer_.active_queues() == keys_with_waiters,
               "sequencer has " << sequencer_.active_queues()
                                << " live queues, but only "
                                << keys_with_waiters
                                << " keys of the active map have waiters");
}

}  // namespace psllc::llc

#endif  // PSLLC_LLC_LLC_IMPL_H_
