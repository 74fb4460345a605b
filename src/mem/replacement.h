// Per-set replacement policy state.
//
// The WCL analysis in the paper (Section 4.3) is explicitly agnostic of the
// replacement policy — it assumes only that the policy "can select any of
// the cache lines". We implement several real policies so the ablation bench
// can demonstrate the bounds hold across them. Victim selection takes an
// eligibility mask because LLC lines with an in-flight back-invalidation
// must not be re-selected.
//
// All five kinds share one value type: a cache set holds its policy by
// value, copies it with the set, and every call is a switch that inlines
// into the set. The inlining is forced: the message code of the range
// checks otherwise leads GCC to emit out-of-line calls on every private
// and LLC access. The state is inline too (no heap), so a cache level's
// per-set policies form one contiguous block. LRU and FIFO keep one stamp
// per way instead of an ordered way list. A touch moves a way to one end
// of the order by giving it a stamp above (or below) every other, and the
// victim is the eligible way with the lowest stamp — exactly the way a
// scan of the ordered list from its victim end would reach first, so
// victim choices match the list form.
#ifndef PSLLC_MEM_REPLACEMENT_H_
#define PSLLC_MEM_REPLACEMENT_H_

#include <array>
#include <bit>
#include <cstdint>

#include "common/rng.h"
#include "mem/cache_types.h"

namespace psllc::mem {

/// Replacement state of one set. Ways are indexed 0..ways-1.
class ReplacementPolicy {
 public:
  /// `seed` feeds the stochastic kinds (Random, NMRU) so whole simulations
  /// stay deterministic.
  ReplacementPolicy(ReplacementKind kind, int ways, std::uint64_t seed = 0)
      : kind_(kind), ways_(ways), rng_(seed) {
    PSLLC_ASSERT(ways > 0 && ways <= kMaxWays,
                 "policy needs 1.." << kMaxWays << " ways, got " << ways);
    if (kind == ReplacementKind::kLru || kind == ReplacementKind::kFifo) {
      // LRU starts with way 0 most recent, FIFO with way 0 oldest.
      for (int w = 0; w < ways; ++w) {
        stamps_[static_cast<std::size_t>(w)] =
            kind == ReplacementKind::kLru ? ways - 1 - w : w;
      }
      newest_ = ways - 1;
    }
    while (leaves_ < ways) {
      leaves_ *= 2;
    }
  }

  [[nodiscard]] int ways() const { return ways_; }

  /// A line was inserted into `way` (fill).
  [[gnu::always_inline]] void on_insert(int way) {
    check_way(way);
    switch (kind_) {
      case ReplacementKind::kLru:
      case ReplacementKind::kFifo: make_newest(way); break;
      case ReplacementKind::kNmru: mru_ = way; break;
      case ReplacementKind::kTreePlru: plru_touch(way); break;
      case ReplacementKind::kRandom: break;
    }
  }

  /// A hit touched `way`. FIFO and Random ignore hits.
  [[gnu::always_inline]] void on_access(int way) {
    check_way(way);
    switch (kind_) {
      case ReplacementKind::kLru: make_newest(way); break;
      case ReplacementKind::kNmru: mru_ = way; break;
      case ReplacementKind::kTreePlru: plru_touch(way); break;
      case ReplacementKind::kFifo:
      case ReplacementKind::kRandom: break;
    }
  }

  /// `way` was invalidated. LRU and FIFO make it the next victim so a
  /// freed way is reused first.
  [[gnu::always_inline]] void on_invalidate(int way) {
    check_way(way);
    switch (kind_) {
      case ReplacementKind::kLru:
      case ReplacementKind::kFifo: make_oldest(way); break;
      case ReplacementKind::kNmru:
        if (mru_ == way) {
          mru_ = -1;
        }
        break;
      case ReplacementKind::kTreePlru:
      case ReplacementKind::kRandom: break;
    }
  }

  /// Chooses a victim among the ways set in `eligible`; returns -1 when
  /// none is. Random and NMRU draw from their stream only when there is a
  /// choice to make.
  [[nodiscard, gnu::always_inline]] int select_victim(WayMask eligible) {
    PSLLC_ASSERT((eligible & ~way_range(0, ways_)) == 0,
                 "eligibility mask names a way beyond " << ways_);
    if (eligible == 0) {
      return -1;
    }
    switch (kind_) {
      case ReplacementKind::kLru:
      case ReplacementKind::kFifo: return lowest_stamp(eligible);
      case ReplacementKind::kRandom: return pick_uniform(eligible);
      case ReplacementKind::kNmru: {
        if (std::has_single_bit(eligible)) {
          return lowest_way(eligible);
        }
        // Exclude the MRU way; at least one other eligible way remains.
        return pick_uniform(mru_ >= 0 ? eligible & ~way_bit(mru_) : eligible);
      }
      case ReplacementKind::kTreePlru: {
        // Walk the tree following the PLRU bits; if the chosen leaf is not
        // eligible, fall back to the first eligible way (hardware would
        // typically mask the tree, which behaves equivalently for our
        // purposes).
        int node = 1;
        while (node < leaves_) {
          node = 2 * node + static_cast<int>((plru_bits_ >> node) & 1U);
        }
        const int way = node - leaves_;
        if (way < ways_ && (eligible & way_bit(way)) != 0) {
          return way;
        }
        return lowest_way(eligible);
      }
    }
    return -1;
  }

 private:
  [[gnu::always_inline]] void check_way(int way) const {
    PSLLC_ASSERT(way >= 0 && way < ways_,
                 "way " << way << " out of range [0," << ways_ << ")");
  }

  void make_newest(int way) {
    stamps_[static_cast<std::size_t>(way)] = ++newest_;
  }
  void make_oldest(int way) {
    stamps_[static_cast<std::size_t>(way)] = --oldest_;
  }

  [[nodiscard]] int lowest_stamp(WayMask eligible) const {
    int best = lowest_way(eligible);
    for (eligible &= eligible - 1; eligible != 0; eligible &= eligible - 1) {
      const int w = lowest_way(eligible);
      if (stamps_[static_cast<std::size_t>(w)] <
          stamps_[static_cast<std::size_t>(best)]) {
        best = w;
      }
    }
    return best;
  }

  /// Uniform pick among the ways of a nonzero mask, in ascending way order.
  [[nodiscard]] int pick_uniform(WayMask pool) {
    auto pick = rng_.next_below(static_cast<std::uint64_t>(std::popcount(pool)));
    for (; pick > 0; --pick) {
      pool &= pool - 1;
    }
    return lowest_way(pool);
  }

  /// Tree-PLRU over a power-of-two number of leaves (phantom leaves past
  /// `ways_` are never eligible): flip the bits along `way`'s path so they
  /// point away from it. Bit n is internal node n (1-based heap order).
  void plru_touch(int way) {
    for (int node = leaves_ + way; node > 1; node /= 2) {
      const int parent = node / 2;
      const WayMask right = (node % 2 == 0) ? 1U : 0U;
      plru_bits_ = (plru_bits_ & ~way_bit(parent)) | (right << parent);
    }
  }

  ReplacementKind kind_;
  int ways_;
  int leaves_ = 1;             ///< Tree-PLRU: ways rounded up to a power of 2
  int mru_ = -1;               ///< NMRU: most recently used way, or -1
  std::int64_t newest_ = 0;    ///< LRU/FIFO: highest stamp handed out
  std::int64_t oldest_ = 0;    ///< LRU/FIFO: lowest stamp handed out
  WayMask plru_bits_ = 0;      ///< Tree-PLRU node bits
  Rng rng_;                    ///< Random/NMRU victim stream
  std::array<std::int64_t, kMaxWays> stamps_{};  ///< LRU/FIFO: order stamp
};

}  // namespace psllc::mem

#endif  // PSLLC_MEM_REPLACEMENT_H_
