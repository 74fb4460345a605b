// TDM bus schedules and the paper's distance calculus.
//
// A schedule is a cyclic sequence of slots, each owned by one core. The
// paper's Definition 4.1 (1S-TDM) requires exactly one slot per core per
// period; Definition 4.2 defines the *distance* between cores used
// throughout the WCL analysis, and Corollary 4.3 bounds it to [1, N].
// General (non-1S) schedules are representable so the unbounded-WCL scenario
// of Section 4.1 can be simulated.
#ifndef PSLLC_BUS_TDM_SCHEDULE_H_
#define PSLLC_BUS_TDM_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace psllc::bus {

class TdmSchedule {
 public:
  /// Builds the canonical 1S-TDM schedule {c0, c1, ..., c(N-1)}.
  static TdmSchedule one_slot(int num_cores, Cycle slot_width);

  /// Builds an arbitrary schedule from an explicit slot->core assignment.
  /// Cores are numbered densely from 0; every core in [0, max_id] must own
  /// at least one slot (throws ConfigError otherwise).
  static TdmSchedule from_slots(std::vector<CoreId> slots, Cycle slot_width);

  /// Builds a weighted schedule, e.g. weights {1, 2} -> {c0, c1, c1}.
  static TdmSchedule weighted(const std::vector<int>& weights,
                              Cycle slot_width);

  [[nodiscard]] Cycle slot_width() const { return slot_width_; }
  [[nodiscard]] int slots_per_period() const {
    return static_cast<int>(slots_.size());
  }
  [[nodiscard]] Cycle period_cycles() const {
    return slot_width_ * slots_per_period();
  }
  [[nodiscard]] int num_cores() const { return num_cores_; }

  /// Definition 4.1: exactly one slot per core per period.
  [[nodiscard]] bool is_one_slot_tdm() const;

  /// Owner of the (global, 0-based) slot index. Defined here, like
  /// slot_start, because the slot body asks it for every executed slot; a
  /// power-of-two period masks instead of dividing.
  [[nodiscard]] CoreId owner_of_slot(std::int64_t slot_index) const {
    PSLLC_ASSERT(slot_index >= 0, "negative slot index");
    const auto index = static_cast<std::uint64_t>(slot_index);
    return slots_[static_cast<std::size_t>(
        pow2_period_ ? index & period_mask_ : index % slots_.size())];
  }

  /// Global index of the slot containing `cycle`.
  [[nodiscard]] std::int64_t slot_at(Cycle cycle) const;

  /// First cycle of global slot `slot_index`.
  [[nodiscard]] Cycle slot_start(std::int64_t slot_index) const {
    PSLLC_ASSERT(slot_index >= 0, "negative slot index");
    return slot_index * slot_width_;
  }

  /// First global slot index >= `from_slot` owned by `core`.
  [[nodiscard]] std::int64_t next_slot_of(CoreId core,
                                          std::int64_t from_slot) const;

  /// Definition 4.2 — number of slots between the start of `from`'s slot and
  /// the start of `to`'s next slot. Requires a 1S-TDM schedule. Satisfies
  /// Corollary 4.3: 1 <= distance <= N (distance(c, c) == N).
  [[nodiscard]] int distance(CoreId from, CoreId to) const;

  /// Distance restricted to a subset of cores sharing a partition: the rank
  /// of `to`'s next slot among the sharers' slots after `from`'s slot. Used
  /// by the analysis when n < N cores share a partition (ranges in [1, n]).
  [[nodiscard]] int sharer_distance(CoreId from, CoreId to,
                                    const std::vector<CoreId>& sharers) const;

  /// Position of the core's (first) slot within the period.
  [[nodiscard]] int position_of(CoreId core) const;

  [[nodiscard]] const std::vector<CoreId>& slots() const { return slots_; }
  [[nodiscard]] std::string to_string() const;

 private:
  TdmSchedule(std::vector<CoreId> slots, Cycle slot_width);

  std::vector<CoreId> slots_;
  std::uint64_t period_mask_ = 0;  ///< slots_per_period - 1
  bool pow2_period_ = true;        ///< owner_of_slot may mask, not divide
  Cycle slot_width_;
  int num_cores_;
};

}  // namespace psllc::bus

#endif  // PSLLC_BUS_TDM_SCHEDULE_H_
