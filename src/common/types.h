// Fundamental value types shared by every psllc subsystem.
//
// The simulator measures time in *cycles* (signed 64-bit, see C++ Core
// Guidelines ES.102: use signed types for arithmetic) and identifies
// hardware agents with small integer ids wrapped in distinct structs so the
// compiler rejects accidental mixing (e.g. passing a way index where a core
// id is expected).
#ifndef PSLLC_COMMON_TYPES_H_
#define PSLLC_COMMON_TYPES_H_

#include <bit>
#include <compare>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace psllc {

/// Simulation time in clock cycles.
using Cycle = std::int64_t;

/// Sentinel for "no cycle" / "not yet happened".
inline constexpr Cycle kNoCycle = std::numeric_limits<Cycle>::min();

/// A byte address in the simulated physical address space.
using Addr = std::uint64_t;

/// A cache-line-granular address: `Addr >> log2(line_size)`.
using LineAddr = std::uint64_t;

/// Identifies a core (0-based). Wrapped so it cannot be confused with set or
/// way indices in call sites.
struct CoreId {
  int value = -1;

  constexpr CoreId() = default;
  constexpr explicit CoreId(int v) : value(v) {}

  [[nodiscard]] constexpr bool valid() const { return value >= 0; }
  constexpr auto operator<=>(const CoreId&) const = default;
};

/// Most cores a system may have: the LLC directory keeps each line's sharers
/// as one 64-bit core mask.
inline constexpr int kMaxCores = 64;

/// Sentinel core id meaning "no core".
inline constexpr CoreId kNoCore{};

/// Returns a printable form, e.g. "c2" (or "c?" for the sentinel).
[[nodiscard]] inline std::string to_string(CoreId c) {
  return c.valid() ? "c" + std::to_string(c.value) : "c?";
}

/// Memory operation kind as seen by a core's load/store unit.
enum class AccessType : std::uint8_t {
  kRead,    ///< data load
  kWrite,   ///< data store (write-allocate)
  kIfetch,  ///< instruction fetch (read-only, goes through L1I)
};

[[nodiscard]] constexpr const char* to_string(AccessType t) {
  switch (t) {
    case AccessType::kRead: return "R";
    case AccessType::kWrite: return "W";
    case AccessType::kIfetch: return "I";
  }
  return "?";
}

/// True if the access may mark a cache line dirty.
[[nodiscard]] constexpr bool is_write(AccessType t) {
  return t == AccessType::kWrite;
}

/// Returns true iff `v` is a power of two (and nonzero).
[[nodiscard]] constexpr bool is_pow2(std::uint64_t v) {
  return v != 0 && (v & (v - 1)) == 0;
}

/// log2 of a power of two. Precondition: is_pow2(v).
[[nodiscard]] constexpr int log2_exact(std::uint64_t v) {
  return std::countr_zero(v);
}

}  // namespace psllc

template <>
struct std::hash<psllc::CoreId> {
  std::size_t operator()(const psllc::CoreId& c) const noexcept {
    return std::hash<int>{}(c.value);
  }
};

#endif  // PSLLC_COMMON_TYPES_H_
