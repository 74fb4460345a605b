// Tests for the private hierarchy's CacheLevel: lookup, fill/evict,
// dirtiness, set mapping and geometry validation.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/assert.h"
#include "mem/private_cache.h"

namespace psllc::mem {
namespace {

// --- CacheLevel (one private-hierarchy level) ------------------------------

CacheLevel make_level(const CacheGeometry& geometry) {
  return CacheLevel(geometry, ReplacementKind::kLru, 0);
}

std::optional<Evicted> fill(CacheLevel& level, LineAddr line, bool dirty) {
  return level.install(level.set_of(line), line, dirty);
}

TEST(CacheLevel, GeometryValidation) {
  EXPECT_THROW(make_level({0, 2, 64}), ConfigError);
  EXPECT_THROW(make_level({2, 0, 64}), ConfigError);
  EXPECT_THROW(make_level({2, 2, 48}), ConfigError);
}

TEST(CacheLevel, RejectsMoreWaysThanAMaskHolds) {
  try {
    make_level({2, kMaxWays + 1, 64});
    FAIL() << "a 65-way cache was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("64-way limit"), std::string::npos)
        << e.what();
  }
  CacheLevel widest({2, kMaxWays, 64}, ReplacementKind::kTreePlru, 0);
  for (LineAddr line = 0; line < 2 * kMaxWays; ++line) {
    ASSERT_FALSE(fill(widest, line, false).has_value());
  }
  const auto victim = fill(widest, 2 * kMaxWays, false);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(widest.valid_lines(), 2 * kMaxWays);
}

TEST(CacheLevel, TouchUpdatesDirtiness) {
  CacheLevel level = make_level({4, 2, 64});
  const int set = level.set_of(0x10);
  EXPECT_EQ(level.find(set, 0x10), -1);
  fill(level, 0x10, false);
  const int way = level.find(set, 0x10);
  ASSERT_GE(way, 0);
  level.touch(set, way, false);
  EXPECT_FALSE(level.is_dirty(0x10));
  level.touch(set, way, true);
  EXPECT_TRUE(level.is_dirty(0x10));
}

TEST(CacheLevel, FillEvictsLruWhenFull) {
  CacheLevel level = make_level({1, 2, 64});
  fill(level, 0x1, false);
  fill(level, 0x2, true);
  const auto victim = fill(level, 0x3, false);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 0x1u);
  EXPECT_FALSE(victim->dirty);
  EXPECT_FALSE(level.contains(0x1));
  EXPECT_TRUE(level.contains(0x2));
  EXPECT_TRUE(level.contains(0x3));
}

TEST(CacheLevel, FillReportsDirtyVictim) {
  CacheLevel level = make_level({1, 1, 64});
  fill(level, 0x1, true);
  const auto victim = fill(level, 0x2, false);
  ASSERT_TRUE(victim.has_value());
  EXPECT_TRUE(victim->dirty);
  EXPECT_FALSE(level.is_dirty(0x2)) << "a refilled way starts clean";
}

TEST(CacheLevel, RemoveReturnsMetadata) {
  CacheLevel level = make_level({2, 2, 64});
  fill(level, 0x4, true);
  const auto removed = level.remove(0x4);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->line, 0x4u);
  EXPECT_TRUE(removed->dirty);
  EXPECT_FALSE(level.remove(0x4).has_value());
  EXPECT_TRUE(level.has_free_way(level.set_of(0x4)));
}

TEST(CacheLevel, SetMappingIsModulo) {
  CacheLevel level = make_level({4, 1, 64});
  // Lines 0 and 4 share set 0 (1 way): second fill evicts the first.
  fill(level, 0, false);
  const auto victim = fill(level, 4, false);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 0u);
  // Line 1 (set 1) coexists.
  fill(level, 1, false);
  EXPECT_TRUE(level.contains(4));
  EXPECT_TRUE(level.contains(1));
}

TEST(CacheLevel, NonPowerOfTwoSetMappingIsModulo) {
  CacheLevel level = make_level({3, 1, 64});
  EXPECT_EQ(level.set_of(0), 0);
  EXPECT_EQ(level.set_of(4), 1);
  EXPECT_EQ(level.set_of(0xffffffffffffffffULL), 0);
  fill(level, 2, false);
  const auto victim = fill(level, 5, false);  // 5 % 3 == 2
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 2u);
  EXPECT_FALSE(fill(level, 4, false).has_value());
}

TEST(CacheLevel, ResidentLinesAndValidCount) {
  CacheLevel level = make_level({4, 2, 64});
  fill(level, 0x11, false);
  fill(level, 0x22, false);
  EXPECT_EQ(level.valid_lines(), 2);
  // Set by set: 0x22 maps to set 2, 0x11 to set 1.
  EXPECT_EQ(level.resident_lines(), (std::vector<LineAddr>{0x11, 0x22}));
}

TEST(CacheLevel, LineOfUsesLineSize) {
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
  CacheLevel level = make_level({sets, ways, 64});
  for (LineAddr line = 0; line < 1000; ++line) {
    const int set = level.set_of(line);
    if (level.find(set, line) < 0) {
      level.install(set, line, false);
    }
    ASSERT_LE(level.valid_lines(), sets * ways);
  }
  EXPECT_EQ(level.valid_lines(), sets * ways);
}

INSTANTIATE_TEST_SUITE_P(Shapes, CacheGeometrySweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 16, 32),
                                            ::testing::Values(1, 2, 4, 16)),
                         [](const auto& info) {
                           return "s" +
                                  std::to_string(std::get<0>(info.param)) +
                                  "_w" +
                                  std::to_string(std::get<1>(info.param));
                         });

}  // namespace
}  // namespace psllc::mem
