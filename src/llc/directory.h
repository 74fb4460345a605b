// Inclusive sharer directory: for every line resident in the LLC, which
// cores hold a private copy (the paper's "l1 : c3" annotations).
//
// The directory is what makes back-invalidation possible: when the LLC
// evicts a line it must force every private copy out (inclusive property,
// paper Section 3). Workloads in the paper are data-disjoint, so lines have
// at most one sharer there; the directory nevertheless supports read
// sharing, and the system model flags writes to multi-sharer lines (a
// predictable coherence protocol is out of scope, see DESIGN.md).
//
// Sharers are kept per line address as a core bit mask (bit c = core c), so
// the directory holds at most kMaxCores cores and a fill allocates nothing
// beyond its map node.
#ifndef PSLLC_LLC_DIRECTORY_H_
#define PSLLC_LLC_DIRECTORY_H_

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace psllc::llc {

/// One bit per core (bit c = core c).
using CoreMask = std::uint64_t;

class InclusiveDirectory {
 public:
  /// Records that `core` now holds a private copy of `line`.
  void add_sharer(LineAddr line, CoreId core) {
    PSLLC_ASSERT(core.valid() && core.value < kMaxCores,
                 "invalid core " << core.value);
    CoreMask& mask = map_[line];
    PSLLC_ASSERT((mask & bit(core)) == 0,
                 to_string(core) << " already shares line 0x" << std::hex
                                 << line);
    mask |= bit(core);
  }

  /// Records that `core` no longer holds `line`. No-op if it was not
  /// recorded (e.g. double notification); returns whether it was present.
  bool remove_sharer(LineAddr line, CoreId core) {
    auto it = map_.find(line);
    if (it == map_.end() || !core.valid() || core.value >= kMaxCores ||
        (it->second & bit(core)) == 0) {
      return false;
    }
    it->second &= ~bit(core);
    if (it->second == 0) {
      map_.erase(it);
    }
    return true;
  }

  /// The sharers of `line` as a core mask (0 when none).
  [[nodiscard]] CoreMask sharer_mask(LineAddr line) const {
    auto it = map_.find(line);
    return it == map_.end() ? 0 : it->second;
  }

  /// All sharers of `line` in ascending core order (empty when none).
  [[nodiscard]] std::vector<CoreId> sharers(LineAddr line) const;

  [[nodiscard]] bool is_shared_by(LineAddr line, CoreId core) const {
    return core.valid() && core.value < kMaxCores &&
           (sharer_mask(line) & bit(core)) != 0;
  }
  [[nodiscard]] int sharer_count(LineAddr line) const {
    return std::popcount(sharer_mask(line));
  }

  /// Drops all sharer state for `line` (LLC entry invalidated).
  void clear_line(LineAddr line) { map_.erase(line); }

  /// Number of lines with at least one sharer.
  [[nodiscard]] int tracked_lines() const {
    return static_cast<int>(map_.size());
  }

 private:
  static CoreMask bit(CoreId core) { return CoreMask{1} << core.value; }

  std::unordered_map<LineAddr, CoreMask> map_;
};

}  // namespace psllc::llc

#endif  // PSLLC_LLC_DIRECTORY_H_
