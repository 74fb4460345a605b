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
// Sets are identified by an opaque SetKey = (partition id, physical set)
// because partitions that share a physical set (different way ranges) are
// fully isolated and must not share ordering state.
#ifndef PSLLC_LLC_SET_SEQUENCER_H_
#define PSLLC_LLC_SET_SEQUENCER_H_

#include <cstdint>
#include <vector>

#include "common/fixed_queue.h"
#include "common/types.h"

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

  /// Appends `core` to the queue for `key`, allocating a QLT entry and SQ
  /// queue on demand. Precondition: the core is not already queued there.
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

  /// Removes the head (must be `core`); releases the QLT entry and queue
  /// when it empties.
  void dequeue_head(SetKey key, CoreId core);

  /// Removes `core` from anywhere in `key`'s queue (e.g. its pending request
  /// was satisfied by a hit after another sharer fetched the line).
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
    int queue_index = -1;
  };

  /// QLT lookup: index into qlt_, or -1.
  [[nodiscard]] int find_entry(SetKey key) const;
  /// Allocates a QLT entry + free queue for `key`.
  int allocate_entry(SetKey key);
  void release_entry(int entry_index);

  std::vector<QltEntry> qlt_;
  std::vector<FixedQueue<CoreId>> queues_;
  std::vector<bool> queue_in_use_;
};

}  // namespace psllc::llc

#endif  // PSLLC_LLC_SET_SEQUENCER_H_
