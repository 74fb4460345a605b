// The set sequencer (paper Section 4.5, Figure 6) — the hardware extension
// that lowers the shared-partition WCL from Theorem 4.7 to Theorem 4.8.
//
// Structure (as in Figure 6):
//  1. Queue Lookup Table (QLT): maps a cache set (with at least one pending
//     LLC request) to one of the Sequencer queues.
//  2. Sequencer (SQ): a pool of FIFO queues; each queue stores the order in
//     which cores' requests to that set arrived at the LLC (bus broadcast
//     order). A freed entry in the set may only be claimed by the core at
//     the head of the set's queue.
//
// Hardware sizing: at most one outstanding LLC request per core, so
// `num_cores` queues of depth `num_cores` suffice; both capacities are
// enforced with assertions (exceeding them would be a model bug).
//
// Each QLT entry also keeps a member mask of the cores in its queue (bit c
// = core c; cores are capped at kMaxCores), so membership is a bit test and
// the head check one compare with the queue's front — no queue walk on the
// per-request path. The mask and the queue hold the same cores by
// construction: every push sets the bit, every pop or erase clears it.
//
// The LLC asks three questions per presentation — may this core claim a
// freed entry (may_claim), record its arrival (enqueue_if_absent), take it
// out once served (release) — and each is answered with one QLT lookup.
// They are defined in this header and forced inline into the request path;
// the checked members (enqueue, dequeue_head, remove) and the queries the
// tests and invariant checks use are built on them.
//
// Sets are identified by an opaque SetKey = (partition id, physical set)
// because partitions that share a physical set (different way ranges) are
// fully isolated and must not share ordering state.
#ifndef PSLLC_LLC_SET_SEQUENCER_H_
#define PSLLC_LLC_SET_SEQUENCER_H_

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/fixed_queue.h"
#include "common/types.h"
#include "llc/directory.h"

namespace psllc::llc {

/// Identifies a (partition, set) ordering domain.
struct SetKey {
  int partition = -1;
  int physical_set = -1;

  constexpr auto operator<=>(const SetKey&) const = default;
  [[nodiscard]] constexpr bool valid() const {
    return partition >= 0 && physical_set >= 0;
  }
};

class SetSequencer {
 public:
  /// `num_queues` — SQ pool size; `queue_depth` — per-queue capacity. Both
  /// default to the core count at the system level.
  SetSequencer(int num_queues, int queue_depth);

  /// True if `core` may claim a freed entry of `key`: nobody is queued (no
  /// contention so far) or `core` is at the head of the queue.
  [[nodiscard]] bool may_claim(SetKey key, CoreId core) const {
    const int index = find_entry(key);
    return index < 0 || queue_at(index).front() == core;
  }

  /// Appends `core` to the queue for `key` unless it is already queued
  /// there, allocating a QLT entry and SQ queue on demand. Returns true if
  /// `core` was appended.
  [[gnu::always_inline]] bool enqueue_if_absent(SetKey key, CoreId core) {
    PSLLC_ASSERT(key.valid(), "invalid set key");
    const CoreMask bit = core_bit(core);
    PSLLC_ASSERT(bit != 0, "invalid core " << core.value);
    int index = find_entry(key);
    if (index < 0) {
      index = allocate_entry(key);
    }
    QltEntry& entry = entry_at(index);
    if ((entry.members & bit) != 0) {
      return false;
    }
    queue_at(index).push(core);
    entry.members |= bit;
    return true;
  }

  /// Takes `core` out of `key`'s queue: pops it at the head, or erases it
  /// from the middle when it was satisfied out of order (e.g. a hit after
  /// another sharer fetched the line). Releases the QLT entry and queue when
  /// they empty. A no-op when `core` is not queued there.
  [[gnu::always_inline]] void release(SetKey key, CoreId core) {
    const int index = find_entry(key);
    if (index < 0) {
      return;
    }
    QltEntry& entry = entry_at(index);
    const CoreMask bit = core_bit(core);
    if ((entry.members & bit) == 0) {
      return;
    }
    FixedQueue<CoreId>& queue = queue_at(index);
    if (queue.front() == core) {
      (void)queue.pop();
    } else {
      queue.erase_at(queue.find_if([core](CoreId c) { return c == core; }));
    }
    entry.members &= ~bit;
    if (queue.empty()) {
      entry = QltEntry{};
    }
  }

  /// Appends `core` to the queue for `key`. Precondition: the core is not
  /// already queued there.
  void enqueue(SetKey key, CoreId core);

  /// True if `key` has a queue with at least one waiter.
  [[nodiscard]] bool has_queue(SetKey key) const;

  /// True if `core` is somewhere in `key`'s queue.
  [[nodiscard]] bool is_queued(SetKey key, CoreId core) const;

  /// True if `core` is at the head of `key`'s queue. A set with no queue has
  /// no head (returns false).
  [[nodiscard]] bool is_head(SetKey key, CoreId core) const;

  /// Number of waiters for `key` (0 when no queue).
  [[nodiscard]] int queue_length(SetKey key) const;

  /// Position of `core` in `key`'s queue (0 = head), or -1.
  [[nodiscard]] int position(SetKey key, CoreId core) const;

  /// release() of the head, which must be `core`.
  void dequeue_head(SetKey key, CoreId core);

  /// release() of a `core` that must be queued for `key`.
  void remove(SetKey key, CoreId core);

  /// Number of sets with live queues (QLT occupancy).
  [[nodiscard]] int active_queues() const;

  /// Drops every queue and QLT entry. Used by the repartition transition:
  /// SetKeys embed partition ids, which are renumbered when the mode map
  /// switches, so stale ordering state must not survive the switch. Waiting
  /// cores re-enqueue deterministically at their next presentation.
  void clear();

  [[nodiscard]] int num_queues() const {
    return static_cast<int>(queues_.size());
  }

 private:
  struct QltEntry {
    bool valid = false;
    SetKey key;
    CoreMask members = 0;  ///< cores in the entry's queue
  };

  /// QLT lookup: index into qlt_, or -1.
  [[nodiscard]] int find_entry(SetKey key) const {
    for (std::size_t i = 0; i < qlt_.size(); ++i) {
      if (qlt_[i].valid && qlt_[i].key == key) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
  [[nodiscard]] QltEntry& entry_at(int index) {
    return qlt_[static_cast<std::size_t>(index)];
  }
  [[nodiscard]] const QltEntry& entry_at(int index) const {
    return qlt_[static_cast<std::size_t>(index)];
  }
  /// The SQ queue of QLT entry `index`. Entry i owns queue i: the pool has
  /// one queue per entry and both would be claimed and freed together,
  /// lowest index first. A live entry's queue is never empty: the entry is
  /// released with its last waiter.
  [[nodiscard]] FixedQueue<CoreId>& queue_at(int index) {
    return queues_[static_cast<std::size_t>(index)];
  }
  [[nodiscard]] const FixedQueue<CoreId>& queue_at(int index) const {
    return queues_[static_cast<std::size_t>(index)];
  }
  /// Claims the lowest free QLT entry (and its queue) for `key`.
  int allocate_entry(SetKey key);

  std::vector<QltEntry> qlt_;
  std::vector<FixedQueue<CoreId>> queues_;
};

}  // namespace psllc::llc

#endif  // PSLLC_LLC_SET_SEQUENCER_H_
