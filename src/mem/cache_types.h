// Basic cache modeling types: line metadata, geometry, latencies.
#ifndef PSLLC_MEM_CACHE_TYPES_H_
#define PSLLC_MEM_CACHE_TYPES_H_

#include <cstdint>
#include <string>

#include "common/assert.h"
#include "common/types.h"

namespace psllc::mem {

/// Validity/dirtiness of one cache line. The simulator tracks metadata only;
/// data payloads are irrelevant to timing.
enum class LineState : std::uint8_t {
  kInvalid,
  kClean,
  kDirty,
};

[[nodiscard]] constexpr const char* to_string(LineState s) {
  switch (s) {
    case LineState::kInvalid: return "I";
    case LineState::kClean: return "C";
    case LineState::kDirty: return "D";
  }
  return "?";
}

/// Metadata of one cache line (tag store entry).
struct LineMeta {
  LineAddr line = 0;                    ///< full line address (tag)
  LineState state = LineState::kInvalid;

  [[nodiscard]] bool valid() const { return state != LineState::kInvalid; }
  [[nodiscard]] bool dirty() const { return state == LineState::kDirty; }
};

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
