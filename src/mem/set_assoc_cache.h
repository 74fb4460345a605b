// Generic set-associative cache over CacheSet, used for the private L1 and
// L2 caches (the partitioned LLC in src/llc builds on CacheSet directly
// because partitions restrict both the set range and the way range).
#ifndef PSLLC_MEM_SET_ASSOC_CACHE_H_
#define PSLLC_MEM_SET_ASSOC_CACHE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/cache_set.h"
#include "mem/cache_types.h"

namespace psllc::mem {

/// A line evicted from a cache (capacity replacement or invalidation).
struct Evicted {
  LineAddr line = 0;
  bool dirty = false;
};

class SetAssocCache {
 public:
  SetAssocCache(const CacheGeometry& geometry, ReplacementKind replacement,
                std::uint64_t seed = 0);

  [[nodiscard]] const CacheGeometry& geometry() const { return geometry_; }

  /// True if `line` is present.
  [[nodiscard]] bool contains(LineAddr line) const;

  /// True if `line` is present and dirty.
  [[nodiscard]] bool is_dirty(LineAddr line) const;

  /// Lookup for an access: returns true on hit, updating replacement state
  /// and dirtiness (if `write`).
  bool access(LineAddr line, bool write);

  /// Inserts `line` (must be absent). If the set is full, a victim is
  /// replaced and returned. `dirty` sets the initial state.
  std::optional<Evicted> fill(LineAddr line, bool dirty);

  /// Removes `line` if present; returns its metadata (for dirty write-back
  /// decisions). No-op returning nullopt when absent.
  std::optional<Evicted> remove(LineAddr line);

  /// Marks `line` clean if present (data written back but retained).
  void mark_clean(LineAddr line);

  /// Number of valid lines across all sets.
  [[nodiscard]] int valid_lines() const;

  /// All valid line addresses (test/introspection helper).
  [[nodiscard]] std::vector<LineAddr> resident_lines() const;

  /// Direct set access for white-box tests.
  [[nodiscard]] const CacheSet& set_at(int index) const;

  // --- statistics ---
  [[nodiscard]] std::int64_t hits() const { return hits_; }
  [[nodiscard]] std::int64_t misses() const { return misses_; }
  void reset_stats() { hits_ = misses_ = 0; }

 private:
  CacheSet& set_for(LineAddr line);
  [[nodiscard]] const CacheSet& set_for(LineAddr line) const;

  CacheGeometry geometry_;
  std::vector<CacheSet> sets_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace psllc::mem

#endif  // PSLLC_MEM_SET_ASSOC_CACHE_H_
