// Basic cache modeling types: way masks, geometry, replacement kinds.
#ifndef PSLLC_MEM_CACHE_TYPES_H_
#define PSLLC_MEM_CACHE_TYPES_H_

#include <bit>
#include <cstdint>
#include <string>

#include "common/assert.h"
#include "common/types.h"

namespace psllc::mem {

/// One bit per way of a set (bit w = way w). Replacement policies pick
/// victims from such a mask, so a set has at most kMaxWays ways.
using WayMask = std::uint64_t;
inline constexpr int kMaxWays = 64;

[[nodiscard]] constexpr WayMask way_bit(int way) { return WayMask{1} << way; }

/// Mask of ways [first, first + count). Precondition: the range lies in
/// [0, kMaxWays].
[[nodiscard]] constexpr WayMask way_range(int first, int count) {
  return (count >= kMaxWays ? ~WayMask{0} : way_bit(count) - 1) << first;
}

/// Lowest way in a nonzero mask.
[[nodiscard]] constexpr int lowest_way(WayMask mask) {
  return std::countr_zero(mask);
}

/// Shape of a set-associative cache.
struct CacheGeometry {
  int num_sets = 1;
  int num_ways = 1;
  int line_bytes = 64;

  [[nodiscard]] int capacity_lines() const { return num_sets * num_ways; }
  [[nodiscard]] std::int64_t capacity_bytes() const {
    return static_cast<std::int64_t>(capacity_lines()) * line_bytes;
  }

  /// Throws ConfigError when the shape is not realizable.
  void validate() const {
    PSLLC_CONFIG_CHECK(num_sets > 0, "cache needs >=1 set, got " << num_sets);
    PSLLC_CONFIG_CHECK(num_ways > 0, "cache needs >=1 way, got " << num_ways);
    PSLLC_CONFIG_CHECK(num_ways <= kMaxWays,
                       "cache has " << num_ways << " ways, more than the "
                                    << kMaxWays << "-way limit");
    PSLLC_CONFIG_CHECK(line_bytes > 0 && is_pow2(
                           static_cast<std::uint64_t>(line_bytes)),
                       "line size must be a power of two, got " << line_bytes);
  }

  /// Line address of a byte address.
  [[nodiscard]] LineAddr line_of(Addr addr) const {
    return addr >> log2_exact(static_cast<std::uint64_t>(line_bytes));
  }

  /// Set index of a line address (modulo mapping).
  [[nodiscard]] int set_of(LineAddr line) const {
    return static_cast<int>(line % static_cast<std::uint64_t>(num_sets));
  }

  [[nodiscard]] std::string to_string() const {
    return std::to_string(num_sets) + "s x " + std::to_string(num_ways) +
           "w x " + std::to_string(line_bytes) + "B";
  }
};

/// Replacement policy selector. The paper's analysis is agnostic to the
/// policy; the simulator supports several so the benches can demonstrate it.
enum class ReplacementKind : std::uint8_t {
  kLru,
  kFifo,
  kRandom,
  kNmru,
  kTreePlru,
};

[[nodiscard]] constexpr const char* to_string(ReplacementKind k) {
  switch (k) {
    case ReplacementKind::kLru: return "LRU";
    case ReplacementKind::kFifo: return "FIFO";
    case ReplacementKind::kRandom: return "RANDOM";
    case ReplacementKind::kNmru: return "NMRU";
    case ReplacementKind::kTreePlru: return "TREE_PLRU";
  }
  return "?";
}

}  // namespace psllc::mem

#endif  // PSLLC_MEM_CACHE_TYPES_H_
