// Per-core private cache hierarchy: L1 instruction + L1 data caches backed
// by a unified L2, as in the paper's system model (Figure 1).
//
// Inclusion: L2 is inclusive of both L1s, and the shared LLC is inclusive of
// L2 (enforced by the system model in src/core). An eviction at any level
// therefore back-invalidates all upper levels; a dirty upper-level copy
// merges its dirtiness downward.
//
// Each level is one flat tag store (`CacheLevel`): a `sets x ways` tag
// array plus one record per set holding its valid and dirty way masks and
// its replacement state. An access computes each level's set index once and
// probes each level at most once; an L2 hit installs into L1 at the set the
// L1 probe already found. (The partitioned LLC in src/llc keeps the same
// kind of flat store, with the extra per-set masks its eviction and drain
// protocols need.)
#ifndef PSLLC_MEM_PRIVATE_CACHE_H_
#define PSLLC_MEM_PRIVATE_CACHE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "mem/cache_types.h"
#include "mem/replacement.h"

namespace psllc::mem {

/// A line evicted from a cache (capacity replacement or invalidation).
struct Evicted {
  LineAddr line = 0;
  bool dirty = false;
};

/// One set-associative level of the private hierarchy. Callers compute the
/// set index once with set_of() and pass it to the per-set members.
class CacheLevel {
 public:
  /// Throws ConfigError when `geometry` is not realizable. Set `s` seeds its
  /// replacement stream with mix_seed(seed, s).
  CacheLevel(const CacheGeometry& geometry, ReplacementKind replacement,
             std::uint64_t seed);

  /// Set index of `line` (modulo mapping; a mask for power-of-two counts).
  [[nodiscard]] int set_of(LineAddr line) const {
    return static_cast<int>(pow2_sets_ ? line & set_mask_ : line % num_sets_);
  }

  /// Way of `set` holding `line`, or -1. Compares every way's tag without
  /// branching and masks the result with the valid ways: with the small
  /// private way counts this beats an early-exit scan, whose exit branch
  /// mispredicts on most probes. Sets of up to kNarrowWays ways compare a
  /// fixed kNarrowWays tags (tags_ is padded so the read stays in bounds;
  /// tags past the set's ways are dropped by the valid mask), so the probe
  /// has no loop whose trip count alternates between the 2-way L1I and the
  /// 4-way L1D.
  [[nodiscard]] int find(int set, LineAddr line) const {
    const LineAddr* tags = tags_.data() + base(set);
    WayMask hits = 0;
    if (geometry_.num_ways <= kNarrowWays) {
      hits = WayMask{tags[0] == line} | WayMask{tags[1] == line} << 1 |
             WayMask{tags[2] == line} << 2 | WayMask{tags[3] == line} << 3;
    } else {
      for (int w = 0; w < geometry_.num_ways; ++w) {
        hits |= WayMask{tags[w] == line} << w;
      }
    }
    hits &= state(set).valid;
    return hits != 0 ? lowest_way(hits) : -1;
  }

  [[nodiscard]] bool contains(LineAddr line) const {
    return find(set_of(line), line) >= 0;
  }

  /// True if `line` is present and dirty.
  [[nodiscard]] bool is_dirty(LineAddr line) const {
    const int set = set_of(line);
    const int way = find(set, line);
    return way >= 0 && (state(set).dirty & way_bit(way)) != 0;
  }

  /// A hit on valid `way` of `set`: updates recency, and dirtiness when
  /// `write`.
  [[gnu::always_inline]] void touch(int set, int way, bool write) {
    SetState& s = state(set);
    s.policy.on_access(way);
    if (write) {
      s.dirty |= way_bit(way);
    }
  }

  /// Installs `line`, which must be absent from `set`, into the lowest free
  /// way, or else over the policy's victim, which is returned.
  [[gnu::always_inline]] std::optional<Evicted> install(int set, LineAddr line,
                                                        bool dirty) {
    SetState& s = state(set);
    LineAddr* tags = tags_.data() + base(set);
    std::optional<Evicted> victim;
    const WayMask free = ~s.valid & all_ways_;
    int way = 0;
    if (free != 0) {
      way = lowest_way(free);
    } else {
      way = s.policy.select_victim(s.valid);
      PSLLC_ASSERT(way >= 0, "full set must yield a victim");
      victim = Evicted{tags[way], (s.dirty & way_bit(way)) != 0};
      s.policy.on_invalidate(way);
    }
    tags[way] = line;
    s.valid |= way_bit(way);
    s.dirty = dirty ? s.dirty | way_bit(way) : s.dirty & ~way_bit(way);
    s.policy.on_insert(way);
    return victim;
  }

  /// Removes `line` if present and returns it with its dirtiness.
  std::optional<Evicted> remove(LineAddr line) {
    const int set = set_of(line);
    const int way = find(set, line);
    if (way < 0) {
      return std::nullopt;
    }
    SetState& s = state(set);
    const Evicted old{line, (s.dirty & way_bit(way)) != 0};
    s.valid &= ~way_bit(way);
    s.dirty &= ~way_bit(way);
    s.policy.on_invalidate(way);
    return old;
  }

  /// True if `set` has an invalid way.
  [[nodiscard]] bool has_free_way(int set) const {
    return state(set).valid != all_ways_;
  }

  /// Number of valid lines across all sets.
  [[nodiscard]] int valid_lines() const;

  /// All valid line addresses, set by set, ways ascending.
  [[nodiscard]] std::vector<LineAddr> resident_lines() const;

 private:
  static constexpr int kNarrowWays = 4;

  /// Valid and dirty ways plus replacement state of one set.
  struct SetState {
    WayMask valid = 0;
    WayMask dirty = 0;
    ReplacementPolicy policy;
  };

  [[nodiscard]] std::size_t base(int set) const {
    return static_cast<std::size_t>(set) *
           static_cast<std::size_t>(geometry_.num_ways);
  }
  [[nodiscard]] SetState& state(int set) {
    return sets_[static_cast<std::size_t>(set)];
  }
  [[nodiscard]] const SetState& state(int set) const {
    return sets_[static_cast<std::size_t>(set)];
  }

  CacheGeometry geometry_;
  std::uint64_t num_sets_ = 1;
  std::uint64_t set_mask_ = 0;  ///< num_sets - 1
  bool pow2_sets_ = true;       ///< set_of may mask instead of divide
  WayMask all_ways_ = 0;
  /// sets x ways, plus kNarrowWays - 1 padding entries; a tag counts only
  /// when its way is valid.
  std::vector<LineAddr> tags_;
  std::vector<SetState> sets_;
};

/// Geometry + latency of one core's private hierarchy.
struct PrivateCacheConfig {
  CacheGeometry l1i{4, 2, 64};
  CacheGeometry l1d{4, 4, 64};
  CacheGeometry l2{16, 4, 64};  // paper §5: 4-way, 16 sets
  ReplacementKind replacement = ReplacementKind::kLru;
  Cycle l1_hit_latency = 1;
  Cycle l2_hit_latency = 10;

  /// Throws ConfigError on inconsistent shapes (mismatched line sizes, L2
  /// smaller than an L1, non-positive latencies).
  void validate() const;
};

/// Which level serviced an access.
enum class HitLevel : std::uint8_t { kL1, kL2, kMiss };

[[nodiscard]] constexpr const char* to_string(HitLevel h) {
  switch (h) {
    case HitLevel::kL1: return "L1";
    case HitLevel::kL2: return "L2";
    case HitLevel::kMiss: return "MISS";
  }
  return "?";
}

/// Result of a back-invalidation (LLC-initiated eviction).
struct ForcedEviction {
  bool was_present = false;
  bool was_dirty = false;
};

class PrivateCacheHierarchy {
 public:
  PrivateCacheHierarchy(const PrivateCacheConfig& config, std::uint64_t seed);

  [[nodiscard]] const PrivateCacheConfig& config() const { return config_; }

  /// Services an access locally. On L2 hit the line is filled into the
  /// appropriate L1 (possible silent L1 replacement, dirty copy merged into
  /// L2). Returns which level hit; kMiss leaves all state unchanged — the
  /// caller must later call fill() with the LLC response.
  HitLevel access(Addr addr, AccessType type);

  /// Installs the LLC response for `addr` into L2 and the appropriate L1.
  /// `write` marks the L1 copy dirty (write-allocate store). Returns the L2
  /// capacity victim, if any, with merged dirtiness — the caller owns the
  /// resulting write-back / directory notification.
  std::optional<Evicted> fill(Addr addr, AccessType type, bool write);

  /// Back-invalidation from the inclusive LLC: removes `line` from L2 and,
  /// when L2 held it, from both L1s (under inclusion an L2 miss means no L1
  /// copy), reporting presence and merged dirtiness.
  ForcedEviction force_evict(LineAddr line);

  /// True if `line` is resident in L2 (by inclusion, covers the L1s).
  [[nodiscard]] bool holds(LineAddr line) const { return l2_.contains(line); }

  /// True if any private copy of `line` is dirty.
  [[nodiscard]] bool holds_dirty(LineAddr line) const;

  /// Number of distinct lines this core can privately cache — the paper's
  /// m_cua. Under inclusion this is the L2 capacity.
  [[nodiscard]] int capacity_lines() const {
    return config_.l2.capacity_lines();
  }

  /// Installs `line` directly into L2 (test-scenario setup, e.g. the
  /// paper's Figure 3/4 initial states). The target set must have room.
  void preload(LineAddr line, bool dirty);

  /// Verifies the inclusion invariant (every L1 line present in L2).
  /// Returns true when it holds; used by property tests.
  [[nodiscard]] bool check_inclusion() const;

  [[nodiscard]] const CacheLevel& l1i() const { return l1i_; }
  [[nodiscard]] const CacheLevel& l1d() const { return l1d_; }
  [[nodiscard]] const CacheLevel& l2() const { return l2_; }

  // --- statistics ---
  [[nodiscard]] std::int64_t l1_hits() const { return l1_hits_; }
  [[nodiscard]] std::int64_t l2_hits() const { return l2_hits_; }
  [[nodiscard]] std::int64_t misses() const { return misses_; }

 private:
  CacheLevel& l1_for(AccessType type) {
    return type == AccessType::kIfetch ? l1i_ : l1d_;
  }

  /// Installs `line` (absent) into `set` of the given L1, merging a dirty
  /// L1 victim into L2.
  void install_l1(CacheLevel& l1, int set, LineAddr line, bool dirty);

  PrivateCacheConfig config_;
  CacheLevel l1i_;
  CacheLevel l1d_;
  CacheLevel l2_;
  std::int64_t l1_hits_ = 0;
  std::int64_t l2_hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace psllc::mem

#endif  // PSLLC_MEM_PRIVATE_CACHE_H_
