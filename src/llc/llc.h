// The shared, partitioned, inclusive last-level cache (paper Section 3).
//
// The LLC services one bus message per TDM slot:
//  * requests — hit (respond in slot), fill (allocate a free entry, fetch
//    from DRAM, respond in slot), or block (set full / not at the head of
//    the set-sequencer queue);
//  * write-backs — voluntary (dirty private victim, data merge) or freeing
//    (answer to a back-invalidation; the entry becomes free when the last
//    sharer's write-back arrives).
//
// Eviction trigger rule (reconstructed from Figures 3 and 4 slot-by-slot):
// a blocked request presentation triggers at most one new eviction, and only
// when  free_entries + in_flight_evictions < pending_requests  for that
// (partition, set). Victims already pending invalidation are ineligible.
// A victim with no private sharers is freed immediately (dirty data drains
// to DRAM off the critical path); a victim with sharers starts a
// back-invalidation that the *system* delivers to the owning cores — their
// forced write-backs later free the entry.
//
// Contention modes: kBestEffort (the paper's NSS — any pending requester
// whose slot arrives first claims a freed entry, so the analysis' distance
// can increase, Observation 3) and kSetSequencer (the paper's SS — FIFO
// arrival order enforced by the set sequencer, Theorem 4.8).
//
// Storage is one flat tag store, as in the private levels
// (mem::CacheLevel): a sets x ways tag array and per-entry eviction
// bookkeeping, plus one record per set with its valid, dirty, pending
// (back-invalidation in flight) and draining way masks and its replacement
// policy. The eviction rule's supply and the victim choice are mask
// operations on that record, not walks over the ways.
//
// The class is a template over the memory-backend type, like the slot body
// (core/slot_body.h) that owns it. The default instantiation
// (`PartitionedLlc`, Memory = mem::MemoryBackend) dispatches DRAM accesses
// virtually and backs core::System; sim::replay() instantiates the system
// (core::BasicSystem), and so the body and the LLC, against each concrete
// `final` backend so the compiler devirtualizes and inlines the fill/drain
// calls on the hot path. Both instantiations execute the same member bodies
// (llc_impl.h), so behavior is identical by construction.
#ifndef PSLLC_LLC_LLC_H_
#define PSLLC_LLC_LLC_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "llc/directory.h"
#include "llc/partition.h"
#include "llc/set_sequencer.h"
#include "mem/memory_backend.h"
#include "mem/replacement.h"

namespace psllc::llc {

/// How contending requests to a shared partition are ordered.
enum class ContentionMode : std::uint8_t {
  kSetSequencer,  ///< the paper's SS
  kBestEffort,    ///< the paper's NSS
};

[[nodiscard]] constexpr const char* to_string(ContentionMode m) {
  return m == ContentionMode::kSetSequencer ? "SS" : "NSS";
}

struct LlcConfig {
  mem::CacheGeometry geometry{32, 16, 64};  // paper §5: 16-way, 32 sets
  mem::ReplacementKind replacement = mem::ReplacementKind::kLru;
  Cycle lookup_latency = 5;
  /// Paper mode: a back-invalidation always costs the owner a write-back
  /// slot, even when its private copy is clean (Figures 2-4 show "WB l" for
  /// every eviction). When false, clean owners acknowledge silently.
  bool clean_back_inval_costs_slot = true;
  std::uint64_t seed = 0;

  void validate() const;
};

/// A back-invalidation the system must deliver: every owner evicts `line`
/// from its private caches and answers with a freeing write-back. Owners
/// are delivered in ascending core order (lowest mask bit first).
struct BackInvalidation {
  LineAddr line = 0;
  CoreMask owners = 0;
};

/// Outcome of presenting a request in the owner's slot.
struct RequestOutcome {
  enum class Status : std::uint8_t {
    kHit,     ///< line present; response within this slot
    kFilled,  ///< free entry allocated + DRAM fetch; response within slot
    kBlocked, ///< cannot complete this slot; request remains pending
  };
  Status status = Status::kBlocked;
  /// Eviction started by this presentation, if any.
  std::optional<BackInvalidation> back_invalidation;

  [[nodiscard]] bool completed() const {
    return status != Status::kBlocked;
  }
};

/// Outcome of a write-back arrival.
struct WritebackOutcome {
  bool freed_entry = false;  ///< the LLC entry became free (last ack)
};

/// LLC statistics. Hoisted to namespace scope so every backend
/// instantiation of BasicPartitionedLlc shares one Stats type — RunMetrics
/// stores it by value regardless of which instantiation produced it.
struct LlcStats {
  std::int64_t hit_presentations = 0;
  std::int64_t blocked_presentations = 0;
  std::int64_t fills = 0;
  std::int64_t evictions_started = 0;
  std::int64_t immediate_frees = 0;
  std::int64_t voluntary_writebacks = 0;
  std::int64_t freeing_writebacks = 0;
  std::int64_t steals = 0;  ///< NSS: allocations past an older waiter
  /// Write requests to lines privately shared by other cores (coherence
  /// would be required; flagged because it is outside the paper's model).
  std::int64_t shared_write_flags = 0;
  // --- dynamic repartitioning (all zero for static programs) ---
  std::int64_t repartitions = 0;        ///< mode transitions begun
  std::int64_t drain_writebacks = 0;    ///< dirty drain lines written to DRAM
  std::int64_t drain_back_invals = 0;   ///< back-invalidations issued by drains

  [[nodiscard]] bool operator==(const LlcStats&) const = default;
};

template <typename Memory = mem::MemoryBackend>
class BasicPartitionedLlc {
 public:
  using Stats = LlcStats;

  /// `memory` (the backing-store model behind the LLC) must outlive the
  /// LLC. `num_cores` sizes pending-request state and the set sequencer.
  BasicPartitionedLlc(const LlcConfig& config, PartitionProgram program,
                      ContentionMode mode, int num_cores, Memory& memory);

  /// Static-map convenience: a single-mode program.
  BasicPartitionedLlc(const LlcConfig& config, PartitionMap partitions,
                      ContentionMode mode, int num_cores, Memory& memory);

  [[nodiscard]] const LlcConfig& config() const { return config_; }
  /// The *currently active* mode's map (mode 0 until the first transition).
  [[nodiscard]] const PartitionMap& partitions() const {
    return program_.mode(mode_index_).map;
  }
  [[nodiscard]] const PartitionProgram& program() const { return program_; }
  [[nodiscard]] ContentionMode mode() const { return mode_; }

  // --- mode-transition protocol ------------------------------------------
  //
  // The slot body calls advance_transition() at the top of every
  // executed slot, before the bus message is picked. When a mode epoch has
  // been reached it switches the active map, freezes every (set, way) slot
  // whose partition assignment changed, and starts draining incompatible
  // resident lines: ownerless lines are written back to DRAM immediately,
  // privately-owned lines are back-invalidated (one outstanding
  // drain-invalidation per owner core at a time, so forced write-backs
  // cannot overflow the bounded pending-writeback queues). Frozen slots
  // become allocatable only at the drain fence — the slot at which the
  // last incompatible line has left the cache.

  /// Begins/advances any due transition; returns the back-invalidations the
  /// system must deliver to private caches this slot.
  [[nodiscard]] std::vector<BackInvalidation> advance_transition(
      Cycle slot_start);

  /// True between a transition's begin and its drain fence.
  [[nodiscard]] bool transition_active() const { return transition_active_; }

  /// Epoch of the next not-yet-begun mode, or kNoCycle when none remain.
  [[nodiscard]] Cycle next_transition_epoch() const {
    return mode_index_ + 1 < program_.num_modes()
               ? program_.mode(mode_index_ + 1).start_cycle
               : kNoCycle;
  }

  /// True when [a, b] intersects any transition window (begin..fence, with
  /// a still-open window extending to +inf).
  [[nodiscard]] bool overlaps_transition(Cycle a, Cycle b) const;

  /// Presents `core`'s request for `line` (first time or retry) in its
  /// slot. `access` is used for diagnostics only: a write request to a line
  /// other cores privately share is counted in stats().shared_write_flags
  /// (the paper assumes data-disjoint tasks, so a predictable coherence
  /// protocol is out of scope).
  RequestOutcome handle_request(CoreId core, LineAddr line, Cycle now,
                                AccessType access = AccessType::kRead);

  /// A write-back from `core` arrives on the bus. `frees_entry` marks the
  /// answer to a back-invalidation.
  WritebackOutcome handle_writeback(CoreId core, LineAddr line,
                                    bool carries_dirty_data, bool frees_entry,
                                    Cycle now);

  /// Directory update for a silent clean private eviction (no bus slot).
  void notify_silent_eviction(CoreId core, LineAddr line);

  /// Immediate acknowledgement of a back-invalidation without a bus
  /// write-back (clean owner, when !clean_back_inval_costs_slot).
  WritebackOutcome ack_back_invalidation_silent(CoreId core, LineAddr line,
                                                Cycle now);

  /// Abandons `core`'s pending request (trace finished mid-request; also
  /// used by failure-injection tests).
  void drop_pending_request(CoreId core);

  // --- test/introspection interface -------------------------------------

  struct EntryView {
    bool valid = false;
    LineAddr line = 0;
    bool dirty = false;
    bool pending_inval = false;
    int pending_acks = 0;
    std::vector<CoreId> sharers;
  };

  [[nodiscard]] EntryView entry(int physical_set, int way) const;
  /// Way holding `line` within `core`'s partition (valid entries only), or
  /// -1.
  [[nodiscard]] int find_way(CoreId core, LineAddr line) const;
  [[nodiscard]] int free_ways(CoreId core, LineAddr line) const;
  [[nodiscard]] SetKey key_for(CoreId core, LineAddr line) const;
  [[nodiscard]] bool has_pending_request(CoreId core) const;
  [[nodiscard]] LineAddr pending_line(CoreId core) const;
  [[nodiscard]] const SetSequencer& sequencer() const { return sequencer_; }
  [[nodiscard]] const InclusiveDirectory& directory() const {
    return directory_;
  }

  /// Installs `line` as if previously fetched, with the given sharers (test
  /// scenario setup; private caches must be preloaded separately).
  void preload(LineAddr line, const std::vector<CoreId>& sharers, bool dirty);

  /// Model invariant sweep for property tests: the dirty, pending and
  /// draining masks lie within the valid ways, a way is pending exactly
  /// while it has outstanding acks, an issued drain invalidation is
  /// pending, pending-ack counts match directory state, every line the
  /// directory tracks is resident (inclusion), sequencer queues only
  /// contain cores with pending requests. Throws AssertionError on
  /// violation.
  void check_invariants() const;

  // --- statistics --------------------------------------------------------
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Pending {
    LineAddr line = 0;
    int partition = -1;
    int physical_set = -1;
    Cycle first_presented = kNoCycle;
  };

  /// Eviction bookkeeping of one entry; its flags live in the set's masks.
  struct EntryState {
    int pending_acks = 0;
    /// This drain's back-invalidation has been issued (drain bookkeeping
    /// owns the per-core serialization counters).
    bool drain_issued = false;
  };

  /// Way masks and replacement state of one set. `pending`: a
  /// back-invalidation is in flight; `draining`: the line is incompatible
  /// with the active mode and must leave the cache before the drain fence.
  /// `dirty`, `pending` and `draining` are subsets of `valid`.
  struct SetState {
    mem::WayMask valid = 0;
    mem::WayMask dirty = 0;
    mem::WayMask pending = 0;
    mem::WayMask draining = 0;
    mem::ReplacementPolicy policy;
  };

  /// A core's partition under the active map: its id and a copy of its
  /// rectangle, so the per-message path reads one small record instead of
  /// walking program -> mode -> map -> spec.
  struct Route {
    int pid = -1;  ///< -1: the core has no partition in the active map
    PartitionSpec spec;
  };

  /// The active route of `core`; asserts that the core has a partition.
  [[nodiscard]] const Route& route_of(CoreId core) const;
  /// Rebuilds routes_ from the active map; called whenever mode_index_
  /// moves.
  void rebuild_routes();
  [[nodiscard]] SetState& set_at(int physical_set);
  [[nodiscard]] const SetState& set_at(int physical_set) const;
  [[nodiscard]] std::size_t index(int physical_set, int way) const {
    return static_cast<std::size_t>(physical_set) *
               static_cast<std::size_t>(config_.geometry.num_ways) +
           static_cast<std::size_t>(way);
  }
  [[nodiscard]] LineAddr tag(int physical_set, int way) const {
    return tags_[index(physical_set, way)];
  }
  [[nodiscard]] EntryState& entry_state(int physical_set, int way) {
    return entry_states_[index(physical_set, way)];
  }
  [[nodiscard]] const EntryState& entry_state(int physical_set,
                                              int way) const {
    return entry_states_[index(physical_set, way)];
  }
  /// Installs `line` into free `way` of `physical_set`; the line must not
  /// be valid anywhere in the set.
  void insert_line(int physical_set, int way, LineAddr line, bool dirty);
  /// Frees `way` of `physical_set`: clears every mask bit and the entry's
  /// eviction bookkeeping.
  void invalidate_way(int physical_set, int way);

  /// Way holding `line` among `spec`'s ways of `physical_set` (valid only;
  /// includes pending-invalidation entries), or -1.
  [[nodiscard]] int find_way_raw(const PartitionSpec& spec, int physical_set,
                                 LineAddr line) const;
  [[nodiscard]] int count_pending_requests(int partition,
                                           int physical_set) const;

  /// Allocation permission under the active contention mode.
  [[nodiscard]] bool may_allocate(SetKey key, CoreId core) const;

  void complete_pending(CoreId core, SetKey key);
  WritebackOutcome apply_back_inval_ack(CoreId core, LineAddr line,
                                        bool dirty_data, Cycle now);

  // --- transition internals ----------------------------------------------
  /// Ways of `physical_set` frozen by the active transition.
  [[nodiscard]] mem::WayMask frozen_ways(int physical_set) const {
    return frozen_.empty() ? 0
                           : frozen_[static_cast<std::size_t>(physical_set)];
  }
  /// Invalid, unfrozen ways of `spec` in `physical_set`.
  [[nodiscard]] mem::WayMask free_way_mask(const PartitionSpec& spec,
                                           int physical_set) const {
    return ~set_at(physical_set).valid & spec.way_mask() &
           ~frozen_ways(physical_set);
  }
  /// (set, way) of `line` anywhere in the cache, or (-1, -1). Acks and
  /// write-backs issued before a mode switch may reference pre-transition
  /// locations the active map no longer describes.
  [[nodiscard]] std::pair<int, int> locate_line(LineAddr line) const;
  /// True when the resident entry at (set, way) is placed where the active
  /// map would place it and all its sharers belong to that partition.
  [[nodiscard]] bool entry_compatible(int physical_set, int way) const;
  void begin_transition(Cycle slot_start);
  void pump_drain(Cycle slot_start, std::vector<BackInvalidation>& out);
  void complete_transition(Cycle slot_start);
  void free_drained_entry(int physical_set, int way, Cycle now);

  LlcConfig config_;
  PartitionProgram program_;
  int mode_index_ = 0;
  ContentionMode mode_;
  Memory* memory_;
  /// Flat tag store: sets x ways, set-major, one tag and one EntryState
  /// per entry; a tag counts only when its way is valid.
  std::vector<LineAddr> tags_;
  std::vector<EntryState> entry_states_;
  std::vector<SetState> sets_;
  InclusiveDirectory directory_;
  SetSequencer sequencer_;
  std::vector<std::optional<Pending>> pending_;
  std::vector<Route> routes_;  ///< per core, for the active mode
  // Transition state (empty/false for static programs).
  bool transition_active_ = false;
  /// Frozen ways per set; non-empty only mid-transition.
  std::vector<mem::WayMask> frozen_;
  std::vector<std::pair<int, int>> drain_queue_;  ///< (set, way) scan order
  std::set<LineAddr> draining_lines_;
  int drain_remaining_ = 0;
  std::vector<int> core_drain_busy_;  ///< outstanding drain invals per core
  std::vector<std::pair<Cycle, Cycle>> transition_windows_;
  Stats stats_;
};

}  // namespace psllc::llc

#include "llc/llc_impl.h"  // template member definitions

namespace psllc::llc {

// The virtual-dispatch instantiation lives in llc.cc; everything that only
// needs the conformance path links against it instead of re-instantiating.
extern template class BasicPartitionedLlc<mem::MemoryBackend>;

using PartitionedLlc = BasicPartitionedLlc<mem::MemoryBackend>;

}  // namespace psllc::llc

#endif  // PSLLC_LLC_LLC_H_
