// Tests for SystemConfig validation and the paper's SS/NSS/P notation.
#include <gtest/gtest.h>

#include <string>

#include "common/assert.h"
#include "core/system_config.h"

namespace psllc::core {
namespace {

TEST(PartitionNotation, ParsesPaperForms) {
  const auto ss = PartitionNotation::parse("SS(1,2,4)");
  EXPECT_EQ(ss.kind, PartitionNotation::Kind::kSharedSequenced);
  EXPECT_EQ(ss.sets, 1);
  EXPECT_EQ(ss.ways, 2);
  EXPECT_EQ(ss.sharers, 4);
  EXPECT_EQ(ss.to_string(), "SS(1,2,4)");

  const auto nss = PartitionNotation::parse("nss( 32 , 4 , 2 )");
  EXPECT_EQ(nss.kind, PartitionNotation::Kind::kSharedBestEffort);
  EXPECT_EQ(nss.sets, 32);

  const auto p = PartitionNotation::parse("P(8,2)");
  EXPECT_EQ(p.kind, PartitionNotation::Kind::kPrivate);
  EXPECT_FALSE(p.is_shared());
  EXPECT_EQ(p.to_string(), "P(8,2)");
}

TEST(PartitionNotation, RejectsMalformed) {
  EXPECT_THROW(PartitionNotation::parse("SS(1,2)"), ConfigError);
  EXPECT_THROW(PartitionNotation::parse("P(1,2,3)"), ConfigError);
  EXPECT_THROW(PartitionNotation::parse("Q(1,2)"), ConfigError);
  EXPECT_THROW(PartitionNotation::parse("SS(0,2,4)"), ConfigError);
  EXPECT_THROW(PartitionNotation::parse("SS(1,2,4"), ConfigError);
  EXPECT_THROW(PartitionNotation::parse("SS 1,2,4)"), ConfigError);
  EXPECT_THROW(PartitionNotation::parse("SS(1,x,4)"), ConfigError);
}

TEST(MakePaperSetup, SharedConfigurations) {
  const auto ss = make_paper_setup("SS(1,2,4)", 4);
  EXPECT_EQ(ss.config.num_cores, 4);
  EXPECT_EQ(ss.config.mode, llc::ContentionMode::kSetSequencer);
  EXPECT_EQ(ss.partitions().num_partitions(), 1);
  EXPECT_EQ(ss.partitions().sharer_count_of(CoreId{0}), 4);
  EXPECT_TRUE(ss.program.is_static());

  const auto nss = make_paper_setup("NSS(32,4,2)", 2);
  EXPECT_EQ(nss.config.mode, llc::ContentionMode::kBestEffort);
  EXPECT_EQ(nss.config.num_cores, 2);
  EXPECT_EQ(nss.partitions().spec(0).num_sets, 32);
  EXPECT_EQ(nss.partitions().spec(0).num_ways, 4);
}

TEST(MakePaperSetup, PrivateConfiguration) {
  const auto p = make_paper_setup("P(8,2)", 4);
  EXPECT_EQ(p.partitions().num_partitions(), 4);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(p.partitions().sharer_count_of(CoreId{c}), 1);
  }
}

TEST(MakePaperSetup, SharerMismatchRejected) {
  EXPECT_THROW(make_paper_setup("SS(1,2,4)", 2), ConfigError);
  EXPECT_THROW(make_paper_setup("SS(1,2,2)", 4), ConfigError);
}

TEST(SystemConfig, PaperPlatformDefaults) {
  const SystemConfig config;
  EXPECT_EQ(config.slot_width, 50);
  EXPECT_EQ(config.llc.geometry.num_sets, 32);
  EXPECT_EQ(config.llc.geometry.num_ways, 16);
  EXPECT_EQ(config.llc.geometry.line_bytes, 64);
  EXPECT_EQ(config.private_caches.l2.num_sets, 16);
  EXPECT_EQ(config.private_caches.l2.num_ways, 4);
  EXPECT_NO_THROW(config.validate());
}

TEST(SystemConfig, SlotMustAbsorbFill) {
  SystemConfig config;
  config.slot_width = 10;  // < lookup (5) + DRAM (30)
  EXPECT_THROW(config.validate(), ConfigError);
  config.slot_width = 35;
  EXPECT_NO_THROW(config.validate());
}

// The fill term validate() checks is supplied by the *selected* memory
// backend: a slot that absorbs the fixed-latency model can be undersized
// for the open-page bank/row model (worst case = a row conflict), while
// the closed-page policy tightens the requirement back down.
TEST(SystemConfig, SlotMustAbsorbSelectedBackendWorstCase) {
  SystemConfig config;
  config.slot_width = 45;  // lookup (5) + fixed (30) fits
  EXPECT_NO_THROW(config.validate());
  config.dram.backend = mem::MemoryBackendKind::kBankRow;
  // Open page: lookup (5) + row conflict (42) = 47 > 45 — rejected.
  EXPECT_THROW(config.validate(), ConfigError);
  config.dram.page_policy = mem::PagePolicy::kClosedPage;
  // Closed page: lookup (5) + activation (34) = 39 — fits again.
  EXPECT_NO_THROW(config.validate());
  config.dram.backend = mem::MemoryBackendKind::kWriteQueue;
  // Write queue: lookup (5) + back-pressure term (30 + 2) = 37 — fits.
  EXPECT_NO_THROW(config.validate());
  config.slot_width = 36;  // one cycle short of the write-queue term
  EXPECT_THROW(config.validate(), ConfigError);
  config.dram.wq_enqueue_latency = 1;
  EXPECT_NO_THROW(config.validate());
}

TEST(SystemConfig, ExplicitScheduleChecked) {
  SystemConfig config;
  config.num_cores = 2;
  config.schedule_slots = {CoreId{0}, CoreId{1}, CoreId{1}};
  EXPECT_NO_THROW(config.validate());
  EXPECT_FALSE(config.make_schedule().is_one_slot_tdm());
  config.schedule_slots = {CoreId{0}};  // core 1 starves
  EXPECT_THROW(config.validate(), ConfigError);
  config.num_cores = 4;
  config.schedule_slots = {CoreId{0}, CoreId{1}};  // covers 2 of 4 cores
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(SystemConfig, CoreAndWayCountsFitTheirMasks) {
  SystemConfig config;
  config.num_cores = kMaxCores + 1;
  try {
    config.validate();
    FAIL() << "a 65-core system was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("64-core limit"), std::string::npos)
        << e.what();
  }
  config.num_cores = kMaxCores;
  EXPECT_NO_THROW(config.validate());

  config.num_cores = 4;
  config.llc.geometry.num_ways = mem::kMaxWays + 1;
  EXPECT_THROW(config.validate(), ConfigError);
  config.llc.geometry.num_ways = 16;
  config.private_caches.l2.num_ways = mem::kMaxWays + 1;
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(SystemConfig, LineSizeConsistencyEnforced) {
  SystemConfig config;
  config.dram.line_bytes = 128;
  EXPECT_THROW(config.validate(), ConfigError);
}

}  // namespace
}  // namespace psllc::core
