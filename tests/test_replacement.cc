// Replacement policy tests: exact behaviour for LRU/FIFO, shared invariants
// for all policies (parameterized), and a differential check of the
// stamp/bit-mask policy against a straightforward reference model built on
// ordered way lists and per-way eligibility vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "mem/replacement.h"

namespace psllc::mem {
namespace {

WayMask all_eligible(int ways) { return way_range(0, ways); }

// --- LRU exact behaviour ----------------------------------------------------

TEST(Lru, EvictsLeastRecentlyUsed) {
  ReplacementPolicy lru(ReplacementKind::kLru, 4);
  for (int w = 0; w < 4; ++w) {
    lru.on_insert(w);
  }
  lru.on_access(0);  // order (MRU->LRU): 0,3,2,1
  EXPECT_EQ(lru.select_victim(all_eligible(4)), 1);
  lru.on_access(1);  // 1,0,3,2
  EXPECT_EQ(lru.select_victim(all_eligible(4)), 2);
}

TEST(Lru, EligibilityMaskSkipsIneligible) {
  ReplacementPolicy lru(ReplacementKind::kLru, 4);
  for (int w = 0; w < 4; ++w) {
    lru.on_insert(w);
  }
  // LRU order is 0,1,2,3 from the LRU end; 0 and 1 masked -> 2.
  EXPECT_EQ(lru.select_victim(0b1100), 2);
}

TEST(Lru, NoEligibleWayReturnsMinusOne) {
  ReplacementPolicy lru(ReplacementKind::kLru, 2);
  lru.on_insert(0);
  lru.on_insert(1);
  EXPECT_EQ(lru.select_victim(0), -1);
}

TEST(Lru, InvalidatedWayBecomesPreferredVictim) {
  ReplacementPolicy lru(ReplacementKind::kLru, 3);
  for (int w = 0; w < 3; ++w) {
    lru.on_insert(w);
  }
  lru.on_access(0);
  lru.on_invalidate(2);
  // 2 moved to LRU position.
  EXPECT_EQ(lru.select_victim(all_eligible(3)), 2);
}

TEST(Lru, FreshPolicyEvictsHighestWayFirst) {
  ReplacementPolicy lru(ReplacementKind::kLru, 4);
  EXPECT_EQ(lru.select_victim(all_eligible(4)), 3);
}

// --- FIFO exact behaviour ------------------------------------------------------

TEST(Fifo, EvictsInInsertionOrderIgnoringHits) {
  ReplacementPolicy fifo(ReplacementKind::kFifo, 3);
  fifo.on_insert(1);
  fifo.on_insert(0);
  fifo.on_insert(2);
  fifo.on_access(1);  // hits do not refresh FIFO order
  EXPECT_EQ(fifo.select_victim(all_eligible(3)), 1);
  fifo.on_insert(1);  // re-inserted: now newest
  EXPECT_EQ(fifo.select_victim(all_eligible(3)), 0);
}

// --- NMRU ---------------------------------------------------------------------

TEST(Nmru, NeverPicksMostRecentlyUsedWhenAlternativesExist) {
  ReplacementPolicy nmru(ReplacementKind::kNmru, 4, 99);
  for (int w = 0; w < 4; ++w) {
    nmru.on_insert(w);
  }
  nmru.on_access(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(nmru.select_victim(all_eligible(4)), 2);
  }
}

TEST(Nmru, PicksMruWhenOnlyEligible) {
  ReplacementPolicy nmru(ReplacementKind::kNmru, 2, 1);
  nmru.on_insert(0);
  nmru.on_insert(1);
  EXPECT_EQ(nmru.select_victim(0b10), 1);
}

// --- shape limits ---------------------------------------------------------------

TEST(ReplacementPolicy, RejectsWayCountsOutsideTheMask) {
  EXPECT_THROW(ReplacementPolicy(ReplacementKind::kLru, 0), AssertionError);
  EXPECT_THROW(ReplacementPolicy(ReplacementKind::kLru, kMaxWays + 1),
               AssertionError);
  EXPECT_NO_THROW(ReplacementPolicy(ReplacementKind::kTreePlru, kMaxWays));
}

TEST(ReplacementPolicy, RejectsMaskBitsBeyondItsWays) {
  ReplacementPolicy lru(ReplacementKind::kLru, 3);
  EXPECT_THROW((void)lru.select_victim(way_bit(3)), AssertionError);
  EXPECT_THROW(lru.on_access(3), AssertionError);
}

TEST(ReplacementPolicy, SixtyFourWaysUseTheTopBit) {
  ReplacementPolicy fifo(ReplacementKind::kFifo, kMaxWays);
  for (int w = 0; w < kMaxWays - 1; ++w) {
    fifo.on_insert(w);
  }
  // Way 63 was never re-inserted, so it is now the oldest.
  EXPECT_EQ(fifo.select_victim(all_eligible(kMaxWays)), kMaxWays - 1);
}

// --- reference model --------------------------------------------------------------
//
// The policies as ordered way lists over std::vector<bool> eligibility,
// kept only to check the value type against.

class ReferencePolicy {
 public:
  ReferencePolicy(ReplacementKind kind, int ways, std::uint64_t seed)
      : kind_(kind), ways_(ways), rng_(seed) {
    order_.resize(static_cast<std::size_t>(ways));
    // LRU: front = MRU. FIFO: front = oldest. Both start 0..ways-1.
    std::iota(order_.begin(), order_.end(), 0);
    leaves_ = 1;
    while (leaves_ < ways) {
      leaves_ *= 2;
    }
    bits_.assign(static_cast<std::size_t>(leaves_), false);
  }

  void on_insert(int way) {
    switch (kind_) {
      case ReplacementKind::kLru: move_to_front(way); break;
      case ReplacementKind::kFifo: move_to_back(way); break;
      case ReplacementKind::kNmru: mru_ = way; break;
      case ReplacementKind::kTreePlru: plru_touch(way); break;
      case ReplacementKind::kRandom: break;
    }
  }

  void on_access(int way) {
    switch (kind_) {
      case ReplacementKind::kLru: move_to_front(way); break;
      case ReplacementKind::kNmru: mru_ = way; break;
      case ReplacementKind::kTreePlru: plru_touch(way); break;
      case ReplacementKind::kFifo:
      case ReplacementKind::kRandom: break;
    }
  }

  void on_invalidate(int way) {
    switch (kind_) {
      case ReplacementKind::kLru: move_to_back(way); break;
      case ReplacementKind::kFifo: move_to_front(way); break;
      case ReplacementKind::kNmru:
        if (mru_ == way) {
          mru_ = -1;
        }
        break;
      case ReplacementKind::kTreePlru:
      case ReplacementKind::kRandom: break;
    }
  }

  int select_victim(const std::vector<bool>& eligible) {
    switch (kind_) {
      case ReplacementKind::kLru:
        for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
          if (eligible[static_cast<std::size_t>(*it)]) {
            return *it;
          }
        }
        return -1;
      case ReplacementKind::kFifo:
        for (int way : order_) {
          if (eligible[static_cast<std::size_t>(way)]) {
            return way;
          }
        }
        return -1;
      case ReplacementKind::kRandom: {
        const int count =
            static_cast<int>(std::count(eligible.begin(), eligible.end(), true));
        return count == 0 ? -1 : nth_eligible(eligible, -1, count);
      }
      case ReplacementKind::kNmru: {
        const int count =
            static_cast<int>(std::count(eligible.begin(), eligible.end(), true));
        if (count <= 1) {
          return count == 0 ? -1 : nth_eligible(eligible, -1, 0);
        }
        const bool mru_eligible =
            mru_ >= 0 && eligible[static_cast<std::size_t>(mru_)];
        return nth_eligible(eligible, mru_, mru_eligible ? count - 1 : count);
      }
      case ReplacementKind::kTreePlru: {
        int node = 1;
        while (node < leaves_) {
          node = 2 * node + (bits_[static_cast<std::size_t>(node)] ? 1 : 0);
        }
        const int way = node - leaves_;
        if (way < ways_ && eligible[static_cast<std::size_t>(way)]) {
          return way;
        }
        for (int w = 0; w < ways_; ++w) {
          if (eligible[static_cast<std::size_t>(w)]) {
            return w;
          }
        }
        return -1;
      }
    }
    return -1;
  }

 private:
  void move_to_front(int way) {
    order_.erase(std::find(order_.begin(), order_.end(), way));
    order_.insert(order_.begin(), way);
  }
  void move_to_back(int way) {
    order_.erase(std::find(order_.begin(), order_.end(), way));
    order_.push_back(way);
  }

  /// Draws from `pool` ways (a uniform index when `pool` > 0, else the
  /// first) and walks the eligible ways other than `skip` to it.
  int nth_eligible(const std::vector<bool>& eligible, int skip, int pool) {
    auto pick = pool > 0 ? static_cast<int>(rng_.next_below(
                               static_cast<std::uint64_t>(pool)))
                         : 0;
    for (int way = 0; way < ways_; ++way) {
      if (eligible[static_cast<std::size_t>(way)] && way != skip &&
          pick-- == 0) {
        return way;
      }
    }
    return -1;
  }

  void plru_touch(int way) {
    int node = leaves_ + way;
    while (node > 1) {
      const int parent = node / 2;
      bits_[static_cast<std::size_t>(parent)] = (node == 2 * parent);
      node = parent;
    }
  }

  ReplacementKind kind_;
  int ways_;
  Rng rng_;
  std::vector<int> order_;
  int mru_ = -1;
  int leaves_ = 1;
  std::vector<bool> bits_;
};

std::vector<bool> to_vector(WayMask mask, int ways) {
  std::vector<bool> eligible(static_cast<std::size_t>(ways));
  for (int w = 0; w < ways; ++w) {
    eligible[static_cast<std::size_t>(w)] = (mask & way_bit(w)) != 0;
  }
  return eligible;
}

/// Random eligibility masks biased toward the edge cases: empty, full, a
/// single way, and sparse/dense mixes.
WayMask random_mask(Rng& rng, int ways) {
  const WayMask all = way_range(0, ways);
  switch (rng.next_below(6)) {
    case 0: return 0;
    case 1: return all;
    case 2: return way_bit(static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(ways))));
    case 3: return rng.next_u64() & rng.next_u64() & all;
    case 4: return (rng.next_u64() | rng.next_u64()) & all;
    default: return rng.next_u64() & all;
  }
}

// --- parameterized over every kind x way count -----------------------------------

class PolicyTest
    : public ::testing::TestWithParam<std::tuple<ReplacementKind, int>> {};

TEST_P(PolicyTest, MatchesReferenceModel) {
  const auto [kind, ways] = GetParam();
  for (std::uint64_t seed : {1u, 42u, 1009u}) {
    ReplacementPolicy policy(kind, ways, seed);
    ReferencePolicy reference(kind, ways, seed);
    Rng rng(mix_seed(seed, static_cast<std::uint64_t>(ways)));
    for (int step = 0; step < 4000; ++step) {
      const int way =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ways)));
      switch (rng.next_below(4)) {
        case 0:
          policy.on_insert(way);
          reference.on_insert(way);
          break;
        case 1:
          policy.on_access(way);
          reference.on_access(way);
          break;
        case 2:
          policy.on_invalidate(way);
          reference.on_invalidate(way);
          break;
        default: {
          const WayMask mask = random_mask(rng, ways);
          ASSERT_EQ(policy.select_victim(mask),
                    reference.select_victim(to_vector(mask, ways)))
              << "seed " << seed << " step " << step << " mask 0x" << std::hex
              << mask;
        }
      }
    }
  }
}

TEST_P(PolicyTest, VictimIsAlwaysEligible) {
  const auto [kind, ways] = GetParam();
  ReplacementPolicy policy(kind, ways, 42);
  for (int w = 0; w < ways; ++w) {
    policy.on_insert(w);
  }
  Rng rng(kind == ReplacementKind::kRandom ? 3u : 4u);
  for (int round = 0; round < 300; ++round) {
    const WayMask eligible = random_mask(rng, ways);
    const int victim = policy.select_victim(eligible);
    if (eligible == 0) {
      EXPECT_EQ(victim, -1);
    } else {
      ASSERT_GE(victim, 0);
      ASSERT_LT(victim, ways);
      EXPECT_NE(eligible & way_bit(victim), 0U);
    }
    // Random access pattern keeps internal state exercised.
    policy.on_access(static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(ways))));
  }
}

TEST_P(PolicyTest, CopyIsIndependent) {
  const auto [kind, ways] = GetParam();
  ReplacementPolicy policy(kind, ways, 7);
  for (int w = 0; w < ways; ++w) {
    policy.on_insert(w);
  }
  ReplacementPolicy copy = policy;
  // Mutating the original must not move the copy: a deterministic kind
  // keeps its answer, a stochastic one keeps its stream.
  ReplacementPolicy twin = copy;
  const int before = copy.select_victim(all_eligible(ways));
  policy.on_access(before);
  policy.on_invalidate(ways - 1);
  (void)policy.select_victim(all_eligible(ways));
  EXPECT_EQ(before, twin.select_victim(all_eligible(ways)));
  if (kind != ReplacementKind::kRandom && kind != ReplacementKind::kNmru) {
    EXPECT_EQ(copy.select_victim(all_eligible(ways)), before);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyTest,
    ::testing::Combine(
        ::testing::Values(ReplacementKind::kLru, ReplacementKind::kFifo,
                          ReplacementKind::kRandom, ReplacementKind::kNmru,
                          ReplacementKind::kTreePlru),
        ::testing::Values(1, 2, 3, 4, 8, 16, 64)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace psllc::mem
