// Coverage for the human-facing rendering paths (string forms, table
// accessors, histograms) and remaining analysis edges.
#include <gtest/gtest.h>

#include "bus/message.h"
#include "bus/tdm_schedule.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/wcl_analysis.h"
#include "llc/partition.h"
#include "mem/cache_types.h"

namespace psllc {
namespace {

TEST(Rendering, ScheduleToString) {
  const auto schedule = bus::TdmSchedule::weighted({1, 2}, 50);
  const std::string text = schedule.to_string();
  EXPECT_NE(text.find("c0"), std::string::npos);
  EXPECT_NE(text.find("c1, c1"), std::string::npos);
  EXPECT_NE(text.find("50"), std::string::npos);
}

TEST(Rendering, BusMessageToString) {
  bus::BusMessage msg;
  msg.kind = bus::MessageKind::kWriteBack;
  msg.source = CoreId{2};
  msg.line = 0xab;
  msg.frees_llc_entry = true;
  const std::string text = msg.to_string();
  EXPECT_NE(text.find("WB"), std::string::npos);
  EXPECT_NE(text.find("c2"), std::string::npos);
  EXPECT_NE(text.find("ab"), std::string::npos);
  EXPECT_NE(text.find("frees"), std::string::npos);
  msg.kind = bus::MessageKind::kRequest;
  EXPECT_NE(msg.to_string().find("Req"), std::string::npos);
}

TEST(Rendering, PartitionSpecToString) {
  const llc::PartitionSpec spec{4, 8, 2, 2};
  const std::string text = spec.to_string();
  EXPECT_NE(text.find("4..11"), std::string::npos);
  EXPECT_NE(text.find("2..3"), std::string::npos);
}

TEST(Rendering, EnumNames) {
  EXPECT_STREQ(mem::to_string(mem::ReplacementKind::kTreePlru), "TREE_PLRU");
  EXPECT_STREQ(mem::to_string(mem::HitLevel::kL2), "L2");
  EXPECT_STREQ(llc::to_string(llc::ContentionMode::kSetSequencer), "SS");
  EXPECT_STREQ(llc::to_string(llc::SetMapping::kXorFold), "xor-fold");
  EXPECT_STREQ(to_string(AccessType::kIfetch), "I");
}

TEST(Rendering, CacheGeometryToString) {
  const mem::CacheGeometry geometry{32, 16, 64};
  EXPECT_EQ(geometry.to_string(), "32s x 16w x 64B");
  EXPECT_EQ(geometry.capacity_bytes(), 32 * 16 * 64);
}

TEST(Rendering, TableRowAccessors) {
  Table table({"a", "b"});
  table.add_row({"1", "2"});
  table.add_row({"3", "4"});
  EXPECT_EQ(table.num_rows(), 2);
  EXPECT_EQ(table.num_cols(), 2);
  EXPECT_EQ(table.row(1)[0], "3");
  EXPECT_EQ(table.header()[1], "b");
  EXPECT_THROW((void)table.row(2), AssertionError);
}

TEST(Rendering, HistogramAscii) {
  Histogram histogram(100, 4);
  for (int i = 0; i < 10; ++i) {
    histogram.add(10);
  }
  histogram.add(990);  // overflow bucket
  const std::string art = histogram.to_ascii();
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find("inf"), std::string::npos);
  histogram.reset();
  EXPECT_EQ(histogram.summary().count(), 0);
}

// --- analysis edges ---------------------------------------------------------

TEST(AnalysisEdges, SharedBoundsShrinkWithFewerSharers) {
  // Fixing N = 4: a partition shared by fewer cores has lower bounds.
  core::SharedPartitionScenario two;
  two.sharers = 2;
  core::SharedPartitionScenario three;
  three.sharers = 3;
  core::SharedPartitionScenario four;
  four.sharers = 4;
  EXPECT_LT(core::wcl_set_sequencer_cycles(two),
            core::wcl_set_sequencer_cycles(three));
  EXPECT_LT(core::wcl_set_sequencer_cycles(three),
            core::wcl_set_sequencer_cycles(four));
  EXPECT_LT(core::wcl_1s_tdm_cycles(two), core::wcl_1s_tdm_cycles(three));
  EXPECT_LT(core::wcl_1s_tdm_cycles(three), core::wcl_1s_tdm_cycles(four));
}

TEST(AnalysisEdges, SequencerBeatsPlainTdmForNonTrivialPartitions) {
  for (int n = 2; n <= 4; ++n) {
    for (int w : {2, 4, 16}) {
      core::SharedPartitionScenario scenario;
      scenario.sharers = n;
      scenario.partition_ways = w;
      EXPECT_LE(core::wcl_set_sequencer_cycles(scenario),
                core::wcl_1s_tdm_cycles(scenario))
          << "n=" << n << " w=" << w;
    }
  }
}

TEST(AnalysisEdges, DegenerateSingleWayPartitionFavoursPlainTdm) {
  // With w = 1 and m = min(m_cua, M) = 1, Theorem 4.7's bound can undercut
  // Theorem 4.8's size-independent one: n = 2, w = 1 gives 17 slots (850
  // cycles) vs 20 slots (1000 cycles). The sequencer's advantage needs a
  // partition larger than one line — consistent with the paper, whose
  // comparisons all use w >= 2.
  core::SharedPartitionScenario scenario;
  scenario.sharers = 2;
  scenario.partition_sets = 1;
  scenario.partition_ways = 1;
  EXPECT_EQ(core::wcl_1s_tdm_cycles(scenario), 850);
  EXPECT_EQ(core::wcl_set_sequencer_cycles(scenario), 1000);
}

TEST(AnalysisEdges, MinimalPlatformBounds) {
  // Degenerate single-core "sharing" platform: the private bound applies.
  EXPECT_EQ(core::wcl_private_slots(1), 3);
  EXPECT_EQ(core::wcl_private_cycles(1, 10), 30);
}

}  // namespace
}  // namespace psllc
