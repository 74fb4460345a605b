// Reference model of one set-associative cache set: a per-set vector of
// line metadata plus the set's replacement policy, every operation checked.
// The simulator's caches (mem::CacheLevel, llc::BasicPartitionedLlc) keep
// flat tag stores with per-set way masks instead; tests use this plain form
// as the straightforward reference they are checked against.
#ifndef PSLLC_TESTS_CACHE_SET_REFERENCE_H_
#define PSLLC_TESTS_CACHE_SET_REFERENCE_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "mem/cache_types.h"
#include "mem/replacement.h"

namespace psllc::mem {

/// Validity/dirtiness of one cache line. The simulator tracks metadata only;
/// data payloads are irrelevant to timing.
enum class LineState : std::uint8_t {
  kInvalid,
  kClean,
  kDirty,
};

/// Metadata of one cache line (tag store entry).
struct LineMeta {
  LineAddr line = 0;                    ///< full line address (tag)
  LineState state = LineState::kInvalid;

  [[nodiscard]] bool valid() const { return state != LineState::kInvalid; }
  [[nodiscard]] bool dirty() const { return state == LineState::kDirty; }
};

class CacheSet {
 public:
  /// A set with `policy.ways()` ways, all invalid.
  explicit CacheSet(ReplacementPolicy policy)
      : lines_(static_cast<std::size_t>(policy.ways())),
        policy_(std::move(policy)) {}

  [[nodiscard]] int ways() const { return policy_.ways(); }

  /// Way holding `line`, or -1.
  [[nodiscard]] int find(LineAddr line) const {
    for (WayMask m = valid_; m != 0; m &= m - 1) {
      const int w = lowest_way(m);
      if (lines_[static_cast<std::size_t>(w)].line == line) {
        return w;
      }
    }
    return -1;
  }

  /// Lowest invalid way, or -1 when the set is full.
  [[nodiscard]] int find_free() const {
    const WayMask free = ~valid_ & way_range(0, ways());
    return free != 0 ? lowest_way(free) : -1;
  }

  [[nodiscard]] const LineMeta& way(int w) const {
    check_way(w);
    return lines_[static_cast<std::size_t>(w)];
  }
  [[nodiscard]] int valid_count() const { return std::popcount(valid_); }
  /// The valid ways.
  [[nodiscard]] WayMask valid_mask() const { return valid_; }

  /// Install `line` into way `w` (must be invalid) and update policy state.
  void insert(LineAddr line, int w, LineState state) {
    check_way(w);
    PSLLC_ASSERT(state != LineState::kInvalid, "cannot insert an invalid line");
    LineMeta& meta = lines_[static_cast<std::size_t>(w)];
    PSLLC_ASSERT(!meta.valid(),
                 "way " << w << " already holds line 0x" << std::hex
                        << meta.line);
    PSLLC_ASSERT(find(line) < 0,
                 "line 0x" << std::hex << line << " already present in set");
    meta.line = line;
    meta.state = state;
    valid_ |= way_bit(w);
    policy_.on_insert(w);
  }

  /// Record a hit on way `w`.
  void touch(int w) {
    check_way(w);
    PSLLC_ASSERT(lines_[static_cast<std::size_t>(w)].valid(),
                 "touch on invalid way " << w);
    policy_.on_access(w);
  }

  /// Mark way `w` dirty (store hit). Precondition: valid.
  void mark_dirty(int w) { set_state(w, LineState::kDirty, "mark_dirty"); }

  /// Mark way `w` clean (after write-back of data). Precondition: valid.
  void mark_clean(int w) { set_state(w, LineState::kClean, "mark_clean"); }

  /// Invalidate way `w`; returns the old metadata.
  LineMeta invalidate(int w) {
    check_way(w);
    LineMeta& meta = lines_[static_cast<std::size_t>(w)];
    PSLLC_ASSERT(meta.valid(), "invalidate on invalid way " << w);
    const LineMeta old = meta;
    meta = LineMeta{};
    valid_ &= ~way_bit(w);
    policy_.on_invalidate(w);
    return old;
  }

  /// Select a victim among the valid ways set in `eligible`; -1 when none.
  /// Does not modify line state.
  [[nodiscard]] int select_victim(WayMask eligible) {
    // The policy must never be offered an invalid way.
    const WayMask invalid = eligible & ~valid_;
    PSLLC_ASSERT(invalid == 0,
                 "eligible mask includes invalid way " << lowest_way(invalid));
    return policy_.select_victim(eligible);
  }

  /// Convenience: victim among all valid ways.
  [[nodiscard]] int select_victim_any() {
    return policy_.select_victim(valid_);
  }

 private:
  void check_way(int w) const {
    PSLLC_ASSERT(w >= 0 && w < ways(),
                 "way " << w << " out of range [0," << ways() << ")");
  }

  void set_state(int w, LineState state, const char* what) {
    check_way(w);
    LineMeta& meta = lines_[static_cast<std::size_t>(w)];
    PSLLC_ASSERT(meta.valid(), what << " on invalid way " << w);
    meta.state = state;
  }

  std::vector<LineMeta> lines_;
  WayMask valid_ = 0;  ///< bit w set iff lines_[w] is valid
  ReplacementPolicy policy_;
};

}  // namespace psllc::mem

#endif  // PSLLC_TESTS_CACHE_SET_REFERENCE_H_
