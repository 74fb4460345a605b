// Inclusive sharer directory: for every line resident in the LLC, which
// cores hold a private copy (the paper's "l1 : c3" annotations).
//
// The directory is what makes back-invalidation possible: when the LLC
// evicts a line it must force every private copy out (inclusive property,
// paper Section 3). Workloads in the paper are data-disjoint, so lines have
// at most one sharer there; the directory nevertheless supports read
// sharing, and the system model flags writes to multi-sharer lines (a
// predictable coherence protocol is out of scope, because the paper assumes
// data-disjoint tasks).
//
// Sharers are kept per line address as a core bit mask (bit c = core c), so
// the directory holds at most kMaxCores cores. The lines live in a flat
// open-addressing table — parallel line and mask arrays, linear probing
// from a multiplicative hash, power-of-two capacity kept at most half full
// — where a slot is empty iff its mask is 0 and erase shifts the probe
// chain back instead of leaving tombstones. Fills, private evictions and
// back-invalidation acks therefore allocate nothing once the table has
// grown to the working set. Slot order depends on the hash and the
// capacity: walk the table only for checks, never for anything that feeds
// an output.
#ifndef PSLLC_LLC_DIRECTORY_H_
#define PSLLC_LLC_DIRECTORY_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace psllc::llc {

/// One bit per core (bit c = core c).
using CoreMask = std::uint64_t;

/// The mask bit of `core`, or 0 for an id outside [0, kMaxCores).
[[nodiscard]] constexpr CoreMask core_bit(CoreId core) {
  return core.valid() && core.value < kMaxCores ? CoreMask{1} << core.value
                                                : 0;
}

/// The lowest core of a nonzero mask; walk a mask in ascending core order
/// with `for (m = mask; m != 0; m &= m - 1) f(lowest_core(m));`.
[[nodiscard]] constexpr CoreId lowest_core(CoreMask mask) {
  return CoreId{std::countr_zero(mask)};
}

class InclusiveDirectory {
 public:
  InclusiveDirectory() : lines_(kMinCapacity), masks_(kMinCapacity) {}

  /// Records that `core` now holds a private copy of `line`.
  void add_sharer(LineAddr line, CoreId core) {
    const bool added = add_sharer_if_absent(line, core);
    PSLLC_ASSERT(added, to_string(core) << " already shares line 0x"
                                        << std::hex << line);
  }

  /// Records that `core` holds `line` unless it already does (one probe);
  /// returns whether the sharer was new.
  bool add_sharer_if_absent(LineAddr line, CoreId core) {
    PSLLC_ASSERT(core_bit(core) != 0, "invalid core " << core.value);
    CoreMask& mask = masks_[claim(line)];
    const bool added = (mask & core_bit(core)) == 0;
    mask |= core_bit(core);
    return added;
  }

  /// Records that `core` no longer holds `line`. No-op if it was not
  /// recorded (e.g. double notification); returns whether it was present.
  bool remove_sharer(LineAddr line, CoreId core) {
    const std::size_t slot = probe(line);
    if ((masks_[slot] & core_bit(core)) == 0) {
      return false;
    }
    masks_[slot] &= ~core_bit(core);
    if (masks_[slot] == 0) {
      erase(slot);
    }
    return true;
  }

  /// The sharers of `line` as a core mask (0 when none).
  [[nodiscard]] CoreMask sharer_mask(LineAddr line) const {
    return masks_[probe(line)];
  }

  /// All sharers of `line` in ascending core order (empty when none).
  [[nodiscard]] std::vector<CoreId> sharers(LineAddr line) const;

  [[nodiscard]] bool is_shared_by(LineAddr line, CoreId core) const {
    return (sharer_mask(line) & core_bit(core)) != 0;
  }
  [[nodiscard]] int sharer_count(LineAddr line) const {
    return std::popcount(sharer_mask(line));
  }

  /// Number of lines with at least one sharer.
  [[nodiscard]] int tracked_lines() const { return size_; }

  /// Table slots (a power of two, at least twice tracked_lines()) and the
  /// slot `line` probes first at that capacity — introspection that lets
  /// tests build colliding probe chains.
  [[nodiscard]] std::size_t capacity() const { return masks_.size(); }
  [[nodiscard]] std::size_t home_slot(LineAddr line) const {
    return home(line);
  }

  /// Calls `f(line, mask)` for every tracked line, in slot order (which
  /// depends on the hash and the capacity — for checks only).
  template <typename F>
  void for_each_line(F&& f) const {
    for (std::size_t i = 0; i < masks_.size(); ++i) {
      if (masks_[i] != 0) {
        f(lines_[i], masks_[i]);
      }
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 64;

  [[nodiscard]] std::size_t home(LineAddr line) const {
    // Fibonacci hashing: the top log2(capacity) bits of line * 2^64/phi.
    return static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  [[nodiscard]] std::size_t next(std::size_t slot) const {
    return (slot + 1) & (masks_.size() - 1);
  }

  /// The slot holding `line`, else the empty slot (mask 0) that ends its
  /// probe chain. Terminates because the table is never full.
  [[nodiscard]] std::size_t probe(LineAddr line) const {
    std::size_t i = home(line);
    while (masks_[i] != 0 && lines_[i] != line) {
      i = next(i);
    }
    return i;
  }

  /// The slot holding `line`, claiming an empty one (mask 0, line set) when
  /// absent; doubles the table first if the claim would make it more than
  /// half full.
  std::size_t claim(LineAddr line) {
    std::size_t i = probe(line);
    if (masks_[i] != 0) {
      return i;
    }
    if (2 * (static_cast<std::size_t>(size_) + 1) > masks_.size()) {
      grow();
      i = probe(line);
    }
    lines_[i] = line;
    ++size_;
    return i;
  }

  /// Empties `hole` by shifting later members of its probe chain back, so
  /// every remaining line stays reachable from its home slot.
  void erase(std::size_t hole) {
    const std::size_t wrap = masks_.size() - 1;
    for (std::size_t j = next(hole); masks_[j] != 0; j = next(j)) {
      // The member at j may fill the hole iff the hole lies on its probe
      // path, i.e. j is at least as far from its home as from the hole.
      if (((j - home(lines_[j])) & wrap) >= ((j - hole) & wrap)) {
        lines_[hole] = lines_[j];
        masks_[hole] = masks_[j];
        hole = j;
      }
    }
    masks_[hole] = 0;
    --size_;
  }

  void grow();

  std::vector<LineAddr> lines_;
  std::vector<CoreMask> masks_;  ///< 0 marks an empty slot
  int shift_ = 64 - std::countr_zero(kMinCapacity);  ///< 64 - log2(capacity)
  int size_ = 0;
};

}  // namespace psllc::llc

#endif  // PSLLC_LLC_DIRECTORY_H_
