// Tests for cache_set and set_assoc_cache: lookup, fill/evict, dirtiness,
// and geometry validation.
#include <gtest/gtest.h>

#include <string>

#include "common/assert.h"
#include "mem/cache_set.h"
#include "mem/set_assoc_cache.h"

namespace psllc::mem {
namespace {

CacheSet make_set(int ways) {
  return CacheSet(ReplacementPolicy(ReplacementKind::kLru, ways));
}

// --- CacheSet ----------------------------------------------------------------

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

// --- SetAssocCache --------------------------------------------------------------

TEST(SetAssocCache, GeometryValidation) {
  EXPECT_THROW(SetAssocCache({0, 2, 64}, ReplacementKind::kLru), ConfigError);
  EXPECT_THROW(SetAssocCache({2, 0, 64}, ReplacementKind::kLru), ConfigError);
  EXPECT_THROW(SetAssocCache({2, 2, 48}, ReplacementKind::kLru), ConfigError);
}

TEST(SetAssocCache, RejectsMoreWaysThanAMaskHolds) {
  try {
    SetAssocCache({2, kMaxWays + 1, 64}, ReplacementKind::kLru);
    FAIL() << "a 65-way cache was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("64-way limit"), std::string::npos)
        << e.what();
  }
  SetAssocCache widest({2, kMaxWays, 64}, ReplacementKind::kTreePlru);
  for (LineAddr line = 0; line < 2 * kMaxWays; ++line) {
    ASSERT_FALSE(widest.fill(line, false).has_value());
  }
  const auto victim = widest.fill(2 * kMaxWays, false);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(widest.valid_lines(), 2 * kMaxWays);
}

TEST(SetAssocCache, HitUpdatesStateAndStats) {
  SetAssocCache cache({4, 2, 64}, ReplacementKind::kLru);
  EXPECT_FALSE(cache.access(0x10, false));
  cache.fill(0x10, false);
  EXPECT_TRUE(cache.access(0x10, false));
  EXPECT_FALSE(cache.is_dirty(0x10));
  EXPECT_TRUE(cache.access(0x10, true));
  EXPECT_TRUE(cache.is_dirty(0x10));
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(SetAssocCache, FillEvictsLruWhenFull) {
  SetAssocCache cache({1, 2, 64}, ReplacementKind::kLru);
  cache.fill(0x1, false);
  cache.fill(0x2, true);
  const auto victim = cache.fill(0x3, false);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 0x1u);
  EXPECT_FALSE(victim->dirty);
  EXPECT_FALSE(cache.contains(0x1));
  EXPECT_TRUE(cache.contains(0x2));
  EXPECT_TRUE(cache.contains(0x3));
}

TEST(SetAssocCache, FillReportsDirtyVictim) {
  SetAssocCache cache({1, 1, 64}, ReplacementKind::kLru);
  cache.fill(0x1, true);
  const auto victim = cache.fill(0x2, false);
  ASSERT_TRUE(victim.has_value());
  EXPECT_TRUE(victim->dirty);
}

TEST(SetAssocCache, RemoveReturnsMetadata) {
  SetAssocCache cache({2, 2, 64}, ReplacementKind::kLru);
  cache.fill(0x4, true);
  const auto removed = cache.remove(0x4);
  ASSERT_TRUE(removed.has_value());
  EXPECT_TRUE(removed->dirty);
  EXPECT_FALSE(cache.remove(0x4).has_value());
}

TEST(SetAssocCache, SetMappingIsModulo) {
  SetAssocCache cache({4, 1, 64}, ReplacementKind::kLru);
  // Lines 0 and 4 share set 0 (1 way): second fill evicts the first.
  cache.fill(0, false);
  const auto victim = cache.fill(4, false);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 0u);
  // Line 1 (set 1) coexists.
  cache.fill(1, false);
  EXPECT_TRUE(cache.contains(4));
  EXPECT_TRUE(cache.contains(1));
}

TEST(SetAssocCache, ResidentLinesAndValidCount) {
  SetAssocCache cache({4, 2, 64}, ReplacementKind::kLru);
  cache.fill(0x11, false);
  cache.fill(0x22, false);
  EXPECT_EQ(cache.valid_lines(), 2);
  const auto lines = cache.resident_lines();
  EXPECT_EQ(lines.size(), 2u);
}

TEST(SetAssocCache, LineOfUsesLineSize) {
  CacheGeometry geometry{4, 2, 64};
  EXPECT_EQ(geometry.line_of(0), 0u);
  EXPECT_EQ(geometry.line_of(63), 0u);
  EXPECT_EQ(geometry.line_of(64), 1u);
  EXPECT_EQ(geometry.line_of(0x1000), 0x40u);
  CacheGeometry wide{4, 2, 128};
  EXPECT_EQ(wide.line_of(255), 1u);
}

// --- parameterized: geometry sweep ------------------------------------------------

class CacheGeometrySweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CacheGeometrySweep, CapacityNeverExceeded) {
  const auto [sets, ways] = GetParam();
  SetAssocCache cache({sets, ways, 64}, ReplacementKind::kLru);
  for (LineAddr line = 0; line < 1000; ++line) {
    if (!cache.access(line, false)) {
      cache.fill(line, false);
    }
    ASSERT_LE(cache.valid_lines(), sets * ways);
  }
  EXPECT_EQ(cache.valid_lines(), sets * ways);
}

INSTANTIATE_TEST_SUITE_P(Shapes, CacheGeometrySweep,
                         ::testing::Combine(::testing::Values(1, 2, 16, 32),
                                            ::testing::Values(1, 2, 4, 16)),
                         [](const auto& info) {
                           return "s" +
                                  std::to_string(std::get<0>(info.param)) +
                                  "_w" +
                                  std::to_string(std::get<1>(info.param));
                         });

}  // namespace
}  // namespace psllc::mem
