#include "bus/tdm_schedule.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/assert.h"

namespace psllc::bus {

TdmSchedule TdmSchedule::one_slot(int num_cores, Cycle slot_width) {
  PSLLC_CONFIG_CHECK(num_cores > 0, "need >=1 core, got " << num_cores);
  std::vector<CoreId> slots;
  slots.reserve(static_cast<std::size_t>(num_cores));
  for (int c = 0; c < num_cores; ++c) {
    slots.emplace_back(c);
  }
  return TdmSchedule(std::move(slots), slot_width);
}

TdmSchedule TdmSchedule::from_slots(std::vector<CoreId> slots,
                                    Cycle slot_width) {
  return TdmSchedule(std::move(slots), slot_width);
}

TdmSchedule TdmSchedule::weighted(const std::vector<int>& weights,
                                  Cycle slot_width) {
  std::vector<CoreId> slots;
  for (std::size_t c = 0; c < weights.size(); ++c) {
    PSLLC_CONFIG_CHECK(weights[c] > 0, "weight of core " << c
                                                         << " must be >=1");
    for (int k = 0; k < weights[c]; ++k) {
      slots.emplace_back(static_cast<int>(c));
    }
  }
  return TdmSchedule(std::move(slots), slot_width);
}

TdmSchedule::TdmSchedule(std::vector<CoreId> slots, Cycle slot_width)
    : slots_(std::move(slots)), slot_width_(slot_width) {
  PSLLC_CONFIG_CHECK(slot_width_ > 0, "slot width must be positive");
  PSLLC_CONFIG_CHECK(!slots_.empty(), "schedule needs at least one slot");
  period_mask_ = slots_.size() - 1;
  pow2_period_ = std::has_single_bit(slots_.size());
  int max_id = -1;
  for (CoreId c : slots_) {
    PSLLC_CONFIG_CHECK(c.valid(), "schedule contains an invalid core id");
    max_id = std::max(max_id, c.value);
  }
  num_cores_ = max_id + 1;
  std::vector<int> count(static_cast<std::size_t>(num_cores_), 0);
  for (CoreId c : slots_) {
    ++count[static_cast<std::size_t>(c.value)];
  }
  for (int c = 0; c < num_cores_; ++c) {
    PSLLC_CONFIG_CHECK(count[static_cast<std::size_t>(c)] > 0,
                       "core " << c << " owns no slot");
  }
}

bool TdmSchedule::is_one_slot_tdm() const {
  return slots_per_period() == num_cores_;
}

std::int64_t TdmSchedule::slot_at(Cycle cycle) const {
  PSLLC_ASSERT(cycle >= 0, "negative cycle");
  return cycle / slot_width_;
}

std::int64_t TdmSchedule::next_slot_of(CoreId core,
                                       std::int64_t from_slot) const {
  PSLLC_ASSERT(core.valid() && core.value < num_cores_,
               "unknown core " << core.value);
  for (std::int64_t s = from_slot;
       s < from_slot + static_cast<std::int64_t>(slots_.size()); ++s) {
    if (owner_of_slot(s) == core) {
      return s;
    }
  }
  PSLLC_ASSERT(false, "core " << core.value << " not found in one period");
  return -1;
}

int TdmSchedule::position_of(CoreId core) const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] == core) {
      return static_cast<int>(i);
    }
  }
  PSLLC_ASSERT(false, "core " << core.value << " not in schedule");
  return -1;
}

int TdmSchedule::distance(CoreId from, CoreId to) const {
  PSLLC_ASSERT(is_one_slot_tdm(),
               "Definition 4.2 distance requires a 1S-TDM schedule");
  const int n = slots_per_period();
  const int pos_from = position_of(from);
  const int pos_to = position_of(to);
  // Slots strictly after pos_from until and including to's next slot.
  const int dist = (pos_to - pos_from + n - 1) % n + 1;
  PSLLC_AUDIT(dist >= 1 && dist <= n,
              "Definition 4.2 distance " << dist << " outside [1, " << n
                                         << "]");
  return dist;
}

int TdmSchedule::sharer_distance(CoreId from, CoreId to,
                                 const std::vector<CoreId>& sharers) const {
  PSLLC_ASSERT(is_one_slot_tdm(),
               "sharer distance requires a 1S-TDM schedule");
  // Rank the sharers by their slot position.
  std::vector<std::pair<int, CoreId>> ranked;
  ranked.reserve(sharers.size());
  for (CoreId c : sharers) {
    ranked.emplace_back(position_of(c), c);
  }
  std::sort(ranked.begin(), ranked.end());
  const int n = static_cast<int>(ranked.size());
  int rank_from = -1;
  int rank_to = -1;
  for (int i = 0; i < n; ++i) {
    if (ranked[static_cast<std::size_t>(i)].second == from) {
      rank_from = i;
    }
    if (ranked[static_cast<std::size_t>(i)].second == to) {
      rank_to = i;
    }
  }
  PSLLC_ASSERT(rank_from >= 0, "core " << from.value << " not a sharer");
  PSLLC_ASSERT(rank_to >= 0, "core " << to.value << " not a sharer");
  const int dist = (rank_to - rank_from + n - 1) % n + 1;
  PSLLC_AUDIT(dist >= 1 && dist <= n, "sharer distance " << dist
                                          << " outside [1, " << n << "]");
  return dist;
}

std::string TdmSchedule::to_string() const {
  std::ostringstream oss;
  oss << "{";
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (i != 0) {
      oss << ", ";
    }
    oss << psllc::to_string(slots_[i]);
  }
  oss << "} x " << slot_width_ << " cycles";
  return oss.str();
}

}  // namespace psllc::bus
