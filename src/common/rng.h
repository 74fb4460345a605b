// Deterministic pseudo-random number generation for workload synthesis.
//
// Experiments must be exactly reproducible across machines and standard
// library versions, so we ship our own generators instead of relying on
// std::mt19937 + distribution implementations (whose outputs are not
// portable for all distributions):
//   * SplitMix64 — seeding / hashing stage.
//   * Xoshiro256** — main stream generator (Blackman & Vigna).
#ifndef PSLLC_COMMON_RNG_H_
#define PSLLC_COMMON_RNG_H_

#include <array>
#include <cstdint>

#include "common/assert.h"

namespace psllc {

/// SplitMix64: tiny, fast, used to expand a 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** 1.0 — all-purpose 64-bit generator with 2^256-1 period.
class Rng {
 public:
  /// Seeds the stream deterministically from a single 64-bit seed.
  explicit Rng(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& word : state_) {
      word = sm.next();
    }
  }

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses Lemire-style rejection to avoid modulo bias.
  std::uint64_t next_below(std::uint64_t bound) {
    PSLLC_ASSERT(bound > 0, "next_below requires positive bound");
    // Rejection sampling on the top of the range.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t next_in_range(std::int64_t lo, std::int64_t hi) {
    PSLLC_ASSERT(lo <= hi, "next_in_range requires lo <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_below(span));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p (clamped to [0,1]).
  bool next_bool(double p) { return next_double() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Stable 64-bit mix of several seed components (e.g. {base_seed, core,
/// address_range}) so every (experiment, core) pair gets an independent
/// stream.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t a,
                                               std::uint64_t b = 0,
                                               std::uint64_t c = 0) {
  SplitMix64 sm(a ^ (b * 0x9e3779b97f4a7c15ULL) ^
                (c * 0xd1b54a32d192ed03ULL));
  return sm.next();
}

}  // namespace psllc

#endif  // PSLLC_COMMON_RNG_H_
