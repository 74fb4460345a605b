// Tests for the per-core L1I/L1D + L2 hierarchy: hit levels, inclusion,
// dirtiness merging, forced evictions, and a differential check of the flat
// levels against a reference built from CacheSet (cache_set_reference.h),
// whose own checks are pinned first.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "cache_set_reference.h"
#include "common/assert.h"
#include "common/rng.h"
#include "mem/private_cache.h"

namespace psllc::mem {
namespace {

CacheSet make_set(int ways) {
  return CacheSet(ReplacementPolicy(ReplacementKind::kLru, ways));
}

// --- the CacheSet reference -------------------------------------------------

TEST(CacheSet, InsertFindInvalidate) {
  CacheSet set = make_set(2);
  EXPECT_EQ(set.find(0x10), -1);
  EXPECT_EQ(set.find_free(), 0);
  set.insert(0x10, 0, LineState::kClean);
  EXPECT_EQ(set.find(0x10), 0);
  EXPECT_EQ(set.valid_count(), 1);
  const LineMeta old = set.invalidate(0);
  EXPECT_EQ(old.line, 0x10u);
  EXPECT_EQ(set.find(0x10), -1);
}

TEST(CacheSet, RejectsDuplicateLine) {
  CacheSet set = make_set(2);
  set.insert(0x10, 0, LineState::kClean);
  EXPECT_THROW(set.insert(0x10, 1, LineState::kClean), AssertionError);
}

TEST(CacheSet, RejectsInsertIntoOccupiedWay) {
  CacheSet set = make_set(2);
  set.insert(0x10, 0, LineState::kClean);
  EXPECT_THROW(set.insert(0x20, 0, LineState::kClean), AssertionError);
}

TEST(CacheSet, DirtyTransitions) {
  CacheSet set = make_set(1);
  set.insert(0x1, 0, LineState::kClean);
  EXPECT_FALSE(set.way(0).dirty());
  set.mark_dirty(0);
  EXPECT_TRUE(set.way(0).dirty());
  set.mark_clean(0);
  EXPECT_FALSE(set.way(0).dirty());
}

TEST(CacheSet, VictimMaskRejectsInvalidWays) {
  CacheSet set = make_set(2);
  set.insert(0x1, 0, LineState::kClean);
  EXPECT_THROW((void)set.select_victim(0b11), AssertionError);  // way 1 invalid
  EXPECT_THROW((void)set.select_victim(0b100), AssertionError);  // no way 2
  EXPECT_EQ(set.select_victim(0b1), 0);
}

TEST(CacheSet, ValidMaskTracksInsertAndInvalidate) {
  CacheSet set = make_set(3);
  set.insert(0x1, 2, LineState::kClean);
  set.insert(0x2, 0, LineState::kDirty);
  EXPECT_EQ(set.valid_mask(), 0b101u);
  EXPECT_EQ(set.find_free(), 1);
  set.mark_clean(0);
  EXPECT_EQ(set.valid_mask(), 0b101u);
  (void)set.invalidate(2);
  EXPECT_EQ(set.valid_mask(), 0b1u);
  EXPECT_EQ(set.valid_count(), 1);
  EXPECT_EQ(set.find_free(), 1);
}

TEST(CacheSet, CopyGetsIndependentPolicy) {
  CacheSet a = make_set(2);
  a.insert(0x1, 0, LineState::kClean);
  a.insert(0x2, 1, LineState::kClean);
  CacheSet b = a;
  a.touch(0);  // a's LRU = way 1; b's LRU unchanged = way 0
  EXPECT_EQ(a.select_victim_any(), 1);
  EXPECT_EQ(b.select_victim_any(), 0);
}

PrivateCacheConfig small_config() {
  PrivateCacheConfig config;
  config.l1i = {2, 1, 64};
  config.l1d = {2, 2, 64};
  config.l2 = {4, 2, 64};
  return config;
}

Addr addr_of_line(LineAddr line) { return line * 64; }

TEST(PrivateCacheConfig, ValidatesShapes) {
  PrivateCacheConfig config = small_config();
  config.l1d.line_bytes = 128;
  EXPECT_THROW(config.validate(), ConfigError);
  config = small_config();
  config.l2 = {1, 1, 64};  // smaller than L1D
  EXPECT_THROW(config.validate(), ConfigError);
  config = small_config();
  config.l1_hit_latency = 0;
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(PrivateCache, MissThenFillThenL1Hit) {
  PrivateCacheHierarchy caches(small_config(), 1);
  const Addr addr = addr_of_line(0x10);
  EXPECT_EQ(caches.access(addr, AccessType::kRead), HitLevel::kMiss);
  caches.fill(addr, AccessType::kRead, false);
  EXPECT_EQ(caches.access(addr, AccessType::kRead), HitLevel::kL1);
  EXPECT_TRUE(caches.holds(0x10));
}

TEST(PrivateCache, L2HitPromotesToL1) {
  PrivateCacheHierarchy caches(small_config(), 1);
  // Fill lines mapping to one L1D set (2 ways) until one is L1-evicted but
  // still in L2: lines 0, 2, 4 all map to L1D set 0 (2 sets) and L2 sets
  // 0/2/0 (4 sets)... use lines 0, 2, 4: L1D sets 0,0,0; L2 sets 0,2,0 --
  // line 4 evicts line 0 from L2 too (2-way L2 set 0 holds {0,4}). Keep it
  // in L2 by using lines 0, 2, 6: L2 sets 0, 2, 2 and L1D sets 0, 0, 0.
  caches.fill(addr_of_line(0), AccessType::kRead, false);
  caches.fill(addr_of_line(2), AccessType::kRead, false);
  caches.fill(addr_of_line(6), AccessType::kRead, false);
  // L1D set 0 holds the two most recent {2, 6}; line 0 is L2-only now.
  EXPECT_EQ(caches.access(addr_of_line(0), AccessType::kRead), HitLevel::kL2);
  // Promoted: next access is an L1 hit.
  EXPECT_EQ(caches.access(addr_of_line(0), AccessType::kRead), HitLevel::kL1);
}

TEST(PrivateCache, IfetchUsesL1IOnly) {
  PrivateCacheHierarchy caches(small_config(), 1);
  const Addr addr = addr_of_line(0x20);
  caches.fill(addr, AccessType::kIfetch, false);
  EXPECT_TRUE(caches.l1i().contains(0x20));
  EXPECT_FALSE(caches.l1d().contains(0x20));
  EXPECT_EQ(caches.access(addr, AccessType::kIfetch), HitLevel::kL1);
  // A *data* access to the same line misses L1D but hits L2.
  EXPECT_EQ(caches.access(addr, AccessType::kRead), HitLevel::kL2);
}

TEST(PrivateCache, WriteMakesLineDirty) {
  PrivateCacheHierarchy caches(small_config(), 1);
  const Addr addr = addr_of_line(0x30);
  caches.fill(addr, AccessType::kWrite, true);
  EXPECT_TRUE(caches.holds_dirty(0x30));
}

TEST(PrivateCache, L2VictimMergesL1Dirtiness) {
  PrivateCacheHierarchy caches(small_config(), 1);
  // Dirty line in L1D; evict it from L2 via set pressure: lines 0x0, 0x4,
  // 0x8 map to L2 set 0 (4 sets, 2 ways).
  caches.fill(addr_of_line(0x0), AccessType::kWrite, true);
  caches.fill(addr_of_line(0x4), AccessType::kRead, false);
  const auto victim = caches.fill(addr_of_line(0x8), AccessType::kRead, false);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 0x0u);
  EXPECT_TRUE(victim->dirty) << "L1 dirtiness must merge into the victim";
  // Inclusion: the victim is gone from L1 too.
  EXPECT_FALSE(caches.l1d().contains(0x0));
  EXPECT_TRUE(caches.check_inclusion());
}

TEST(PrivateCache, ForceEvictRemovesEverywhereAndReportsDirty) {
  PrivateCacheHierarchy caches(small_config(), 1);
  caches.fill(addr_of_line(0x5), AccessType::kWrite, true);
  const ForcedEviction result = caches.force_evict(0x5);
  EXPECT_TRUE(result.was_present);
  EXPECT_TRUE(result.was_dirty);
  EXPECT_FALSE(caches.holds(0x5));
  EXPECT_FALSE(caches.l1d().contains(0x5));
  const ForcedEviction absent = caches.force_evict(0x5);
  EXPECT_FALSE(absent.was_present);
}

TEST(PrivateCache, PreloadPlacesLineInL2Only) {
  PrivateCacheHierarchy caches(small_config(), 1);
  caches.preload(0x7, false);
  EXPECT_TRUE(caches.holds(0x7));
  EXPECT_FALSE(caches.l1d().contains(0x7));
  EXPECT_THROW(caches.preload(0x7, false), AssertionError);
}

TEST(PrivateCache, CapacityLinesIsL2Capacity) {
  PrivateCacheHierarchy caches(small_config(), 1);
  EXPECT_EQ(caches.capacity_lines(), 8);
  PrivateCacheConfig paper;  // defaults: 4-way x 16-set L2
  PrivateCacheHierarchy paper_caches(paper, 1);
  EXPECT_EQ(paper_caches.capacity_lines(), 64);
}

// Property: inclusion holds under arbitrary access/fill/evict interleaving.
class PrivateCacheProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrivateCacheProperty, InclusionInvariantUnderRandomTraffic) {
  PrivateCacheHierarchy caches(small_config(), GetParam());
  Rng rng(GetParam());
  for (int step = 0; step < 3000; ++step) {
    const LineAddr line = rng.next_below(64);
    const Addr addr = addr_of_line(line);
    const double action = rng.next_double();
    if (action < 0.7) {
      const auto type =
          rng.next_bool(0.3) ? AccessType::kWrite : AccessType::kRead;
      if (caches.access(addr, type) == HitLevel::kMiss) {
        caches.fill(addr, type, is_write(type));
      }
    } else if (action < 0.85) {
      caches.force_evict(line);
    } else {
      const Addr iaddr = addr_of_line(rng.next_below(32));
      if (caches.access(iaddr, AccessType::kIfetch) == HitLevel::kMiss) {
        caches.fill(iaddr, AccessType::kIfetch, false);
      }
    }
    ASSERT_TRUE(caches.check_inclusion()) << "at step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrivateCacheProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- differential: flat levels vs a CacheSet reference ----------------------

// One level as a vector of CacheSet, probed the straightforward way: every
// question is its own find() over the set.
class RefLevel {
 public:
  RefLevel(const CacheGeometry& geometry, ReplacementKind kind,
           std::uint64_t seed)
      : num_sets_(static_cast<std::uint64_t>(geometry.num_sets)) {
    for (int s = 0; s < geometry.num_sets; ++s) {
      sets_.emplace_back(ReplacementPolicy(
          kind, geometry.num_ways,
          mix_seed(seed, static_cast<std::uint64_t>(s))));
    }
  }

  [[nodiscard]] bool contains(LineAddr line) const {
    return set_for(line).find(line) >= 0;
  }
  [[nodiscard]] bool is_dirty(LineAddr line) const {
    const int way = set_for(line).find(line);
    return way >= 0 && set_for(line).way(way).dirty();
  }
  [[nodiscard]] bool has_room(LineAddr line) const {
    return set_for(line).find_free() >= 0;
  }
  bool access(LineAddr line, bool write) {
    CacheSet& set = set_for(line);
    const int way = set.find(line);
    if (way < 0) {
      return false;
    }
    set.touch(way);
    if (write) {
      set.mark_dirty(way);
    }
    return true;
  }
  std::optional<Evicted> fill(LineAddr line, bool dirty) {
    CacheSet& set = set_for(line);
    std::optional<Evicted> victim;
    int way = set.find_free();
    if (way < 0) {
      way = set.select_victim_any();
      const LineMeta old = set.invalidate(way);
      victim = Evicted{old.line, old.dirty()};
    }
    set.insert(line, way, dirty ? LineState::kDirty : LineState::kClean);
    return victim;
  }
  std::optional<Evicted> remove(LineAddr line) {
    CacheSet& set = set_for(line);
    const int way = set.find(line);
    if (way < 0) {
      return std::nullopt;
    }
    const LineMeta old = set.invalidate(way);
    return Evicted{old.line, old.dirty()};
  }
  [[nodiscard]] std::vector<LineAddr> resident_lines() const {
    std::vector<LineAddr> lines;
    for (const CacheSet& set : sets_) {
      for (int w = 0; w < set.ways(); ++w) {
        if (set.way(w).valid()) {
          lines.push_back(set.way(w).line);
        }
      }
    }
    return lines;
  }

 private:
  CacheSet& set_for(LineAddr line) { return sets_[line % num_sets_]; }
  [[nodiscard]] const CacheSet& set_for(LineAddr line) const {
    return sets_[line % num_sets_];
  }

  std::uint64_t num_sets_;
  std::vector<CacheSet> sets_;
};

// The hierarchy as three RefLevels, with the same inclusion rules.
struct RefHierarchy {
  RefHierarchy(const PrivateCacheConfig& config, std::uint64_t seed)
      : l1i(config.l1i, config.replacement, mix_seed(seed, 1)),
        l1d(config.l1d, config.replacement, mix_seed(seed, 2)),
        l2(config.l2, config.replacement, mix_seed(seed, 3)) {}

  RefLevel& l1_for(AccessType type) {
    return type == AccessType::kIfetch ? l1i : l1d;
  }
  HitLevel access(LineAddr line, AccessType type) {
    RefLevel& l1 = l1_for(type);
    if (l1.access(line, is_write(type))) {
      ++l1_hits;
      return HitLevel::kL1;
    }
    if (!l2.access(line, false)) {
      ++misses;
      return HitLevel::kMiss;
    }
    ++l2_hits;
    fill_l1(l1, line, is_write(type));
    return HitLevel::kL2;
  }
  std::optional<Evicted> fill(LineAddr line, AccessType type, bool write) {
    std::optional<Evicted> victim = l2.fill(line, false);
    if (victim) {
      for (RefLevel* l1 : {&l1i, &l1d}) {
        if (auto v = l1->remove(victim->line)) {
          victim->dirty = victim->dirty || v->dirty;
        }
      }
    }
    fill_l1(l1_for(type), line, write);
    return victim;
  }
  void fill_l1(RefLevel& l1, LineAddr line, bool dirty) {
    const std::optional<Evicted> victim = l1.fill(line, dirty);
    if (victim && victim->dirty) {
      EXPECT_TRUE(l2.access(victim->line, true));
    }
  }
  ForcedEviction force_evict(LineAddr line) {
    ForcedEviction result;
    for (RefLevel* level : {&l1i, &l1d, &l2}) {
      if (auto v = level->remove(line)) {
        result.was_present = true;
        result.was_dirty = result.was_dirty || v->dirty;
      }
    }
    return result;
  }
  [[nodiscard]] bool holds_dirty(LineAddr line) const {
    return l2.is_dirty(line) || l1d.is_dirty(line) || l1i.is_dirty(line);
  }

  RefLevel l1i;
  RefLevel l1d;
  RefLevel l2;
  std::int64_t l1_hits = 0;
  std::int64_t l2_hits = 0;
  std::int64_t misses = 0;
};

PrivateCacheConfig shaped(CacheGeometry l1i, CacheGeometry l1d,
                          CacheGeometry l2) {
  PrivateCacheConfig config;
  config.l1i = l1i;
  config.l1d = l1d;
  config.l2 = l2;
  return config;
}

struct Shape {
  const char* name;
  PrivateCacheConfig config;
};

const std::vector<Shape>& shapes() {
  static const std::vector<Shape> kShapes = {
      {"paper", PrivateCacheConfig{}},
      {"small", small_config()},
      {"npot_3_5_12", shaped({3, 2, 64}, {5, 2, 64}, {12, 4, 64})},
      {"l1_1way_l2_64way", shaped({4, 1, 64}, {8, 1, 64}, {2, 64, 64})},
  };
  return kShapes;
}

void expect_same_victim(const std::optional<Evicted>& got,
                        const std::optional<Evicted>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (want) {
    EXPECT_EQ(got->line, want->line);
    EXPECT_EQ(got->dirty, want->dirty);
  }
}

class PrivateCacheDifferential
    : public ::testing::TestWithParam<std::tuple<ReplacementKind, int>> {};

TEST_P(PrivateCacheDifferential, MatchesCacheSetReference) {
  const auto [kind, shape_index] = GetParam();
  PrivateCacheConfig config =
      shapes()[static_cast<std::size_t>(shape_index)].config;
  config.replacement = kind;
  for (const std::uint64_t seed : {1ULL, 77ULL}) {
    PrivateCacheHierarchy flat(config, seed);
    RefHierarchy ref(config, seed);
    Rng rng(mix_seed(seed, static_cast<std::uint64_t>(shape_index)));
    // Four times the L2 capacity keeps every level under set pressure.
    const auto span = static_cast<std::uint64_t>(4 * config.l2.capacity_lines());
    for (int step = 0; step < 4000; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      const LineAddr line = rng.next_below(span);
      const double action = rng.next_double();
      if (action < 0.8) {
        const double pick = rng.next_double();
        const AccessType type = pick < 0.5    ? AccessType::kRead
                                : pick < 0.75 ? AccessType::kWrite
                                              : AccessType::kIfetch;
        const Addr addr = line * 64 + rng.next_below(64);
        const HitLevel hit = flat.access(addr, type);
        ASSERT_EQ(hit, ref.access(line, type));
        if (hit == HitLevel::kMiss) {
          const bool write = is_write(type) || rng.next_bool(0.05);
          expect_same_victim(flat.fill(addr, type, write),
                             ref.fill(line, type, write));
        }
      } else if (action < 0.88) {
        const ForcedEviction got = flat.force_evict(line);
        const ForcedEviction want = ref.force_evict(line);
        EXPECT_EQ(got.was_present, want.was_present);
        EXPECT_EQ(got.was_dirty, want.was_dirty);
      } else if (action < 0.92) {
        if (!ref.l2.contains(line) && ref.l2.has_room(line)) {
          const bool dirty = rng.next_bool(0.5);
          flat.preload(line, dirty);
          EXPECT_TRUE(ref.l2.fill(line, dirty) == std::nullopt);
        }
      } else {
        EXPECT_EQ(flat.holds(line), ref.l2.contains(line));
        EXPECT_EQ(flat.holds_dirty(line), ref.holds_dirty(line));
      }
      ASSERT_EQ(flat.l1_hits(), ref.l1_hits);
      ASSERT_EQ(flat.l2_hits(), ref.l2_hits);
      ASSERT_EQ(flat.misses(), ref.misses);
      if (step % 64 == 0) {
        ASSERT_EQ(flat.l1i().resident_lines(), ref.l1i.resident_lines());
        ASSERT_EQ(flat.l1d().resident_lines(), ref.l1d.resident_lines());
        ASSERT_EQ(flat.l2().resident_lines(), ref.l2.resident_lines());
        ASSERT_TRUE(flat.check_inclusion());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndShapes, PrivateCacheDifferential,
    ::testing::Combine(::testing::Values(ReplacementKind::kLru,
                                         ReplacementKind::kFifo,
                                         ReplacementKind::kRandom,
                                         ReplacementKind::kNmru,
                                         ReplacementKind::kTreePlru),
                       ::testing::Values(0, 1, 2, 3)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             shapes()[static_cast<std::size_t>(std::get<1>(info.param))].name;
    });

}  // namespace
}  // namespace psllc::mem
