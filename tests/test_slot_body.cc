// Unit tests for the slot body's lane semantics (core/slot_body.h) and the
// RequestTracker.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "common/assert.h"
#include "core/slot_body.h"
#include "core/system.h"
#include "mem/memory_backend.h"

namespace psllc::core {
namespace {

Addr addr_of_line(LineAddr line) { return line * 64; }

/// A two-core body with private partitions and the paper's defaults
/// (1-cycle L1, 10-cycle L2, 50-cycle slots, schedule {c0, c1}); lane 0
/// replays `trace`.
struct Harness {
  ExperimentSetup setup = make_paper_setup("P(8,2)", 2);
  std::unique_ptr<mem::MemoryBackend> memory = setup.config.dram.make_backend();
  SlotBody<mem::MemoryBackend> body{setup.config, setup.program, *memory};
  Trace trace;

  explicit Harness(Trace ops = {}) : trace(std::move(ops)) {
    body.bind_lane(0, trace, 0);
  }
};

TEST(SlotBody, EmptyTraceIsDone) {
  Harness h;
  EXPECT_TRUE(h.body.trace_done(0));
  h.body.advance_lane(0, 1000);
  EXPECT_TRUE(h.body.trace_done(0));
  EXPECT_EQ(h.body.finish_time(0), 0);
}

TEST(SlotBody, MissBlocksAndIssuesRequest) {
  Harness h(Trace{MemOp{addr_of_line(0x10), AccessType::kRead, 0}});
  h.body.advance_lane(0, 100);
  EXPECT_TRUE(h.body.blocked(0));
  EXPECT_FALSE(h.body.trace_done(0));
  ASSERT_TRUE(h.body.buffers(0).has_request());
  const bus::BusMessage& msg = h.body.buffers(0).request();
  EXPECT_EQ(msg.line, 0x10u);
  EXPECT_EQ(msg.enqueued_at, 11);  // L1 (1) + L2 (10) tag checks
  EXPECT_TRUE(h.body.tracker().has_inflight(CoreId{0}));
  EXPECT_EQ(h.body.tracker().inflight(CoreId{0}).issued, 11);
}

TEST(SlotBody, GapDelaysIssueWithoutDoubleCounting) {
  Harness h(Trace{MemOp{addr_of_line(0x10), AccessType::kRead, 200}});
  h.body.advance_lane(0, 50);  // gap applied once; op not started yet
  EXPECT_FALSE(h.body.blocked(0));
  h.body.advance_lane(0, 150);  // still before the gap expires
  EXPECT_FALSE(h.body.blocked(0));
  h.body.advance_lane(0, 300);
  EXPECT_TRUE(h.body.blocked(0));
  EXPECT_EQ(h.body.buffers(0).request().enqueued_at, 211);
}

TEST(SlotBody, ResponseUnblocksAndAdvances) {
  Harness h(Trace{MemOp{addr_of_line(0x10), AccessType::kRead, 0},
                  MemOp{addr_of_line(0x10), AccessType::kRead, 0}});
  h.body.advance_lane(0, 100);
  ASSERT_TRUE(h.body.blocked(0));
  EXPECT_FALSE(h.body.respond(0, /*slot=*/4, 250, false).has_value());
  EXPECT_FALSE(h.body.blocked(0));
  EXPECT_FALSE(h.body.buffers(0).has_request());
  // Second access: L1 hit at 250 -> finishes at 251.
  h.body.advance_lane(0, 1000);
  EXPECT_TRUE(h.body.trace_done(0));
  EXPECT_EQ(h.body.finish_time(0), 251);
}

TEST(SlotBody, ExecuteSlotServesTheOwnersRequest) {
  Harness h(Trace{MemOp{addr_of_line(0x10), AccessType::kRead, 0}});
  // Issued at 11: slot 0 (start 0) is too early, slot 1 belongs to c1.
  EXPECT_EQ(h.body.execute_slot(0).action, SlotEvent::Action::kIdle);
  EXPECT_EQ(h.body.execute_slot(1).action, SlotEvent::Action::kIdle);
  const SlotEvent event = h.body.execute_slot(2);
  EXPECT_EQ(event.slot_start, 100);
  EXPECT_EQ(event.owner, CoreId{0});
  EXPECT_EQ(event.action, SlotEvent::Action::kRequest);
  EXPECT_EQ(event.line, 0x10u);
  EXPECT_TRUE(event.request_completed);  // private partition: fill
  EXPECT_TRUE(h.body.drained(0));
  EXPECT_EQ(h.body.finish_time(0), 150);
  EXPECT_EQ(h.body.done_slot(0), 3);
  EXPECT_EQ(h.body.tracker().worst_request().service_latency(), 50);
}

TEST(SlotBody, SetTraceWhileBlockedAsserts) {
  System system(make_paper_setup("P(8,2)", 2));
  system.set_trace(CoreId{0},
                   Trace{MemOp{addr_of_line(0x10), AccessType::kRead, 0}});
  system.step_slot();  // slot 0: nothing can start before cycle 0
  system.step_slot();  // slot 1: the miss issues at 11
  ASSERT_TRUE(system.blocked(CoreId{0}));
  EXPECT_THROW(system.set_trace(CoreId{0}, Trace{}), AssertionError);
}

TEST(SlotBody, ResponseWithoutRequestAsserts) {
  Harness h;
  EXPECT_THROW((void)h.body.respond(0, 0, 100, false), AssertionError);
}

// --- RequestTracker ---------------------------------------------------------

TEST(RequestTracker, LifecycleAndLatencies) {
  RequestTracker tracker(2, /*keep_records=*/true);
  tracker.begin(CoreId{1}, 0x5, AccessType::kWrite, 100);
  tracker.on_presented(CoreId{1}, 150);
  tracker.on_presented(CoreId{1}, 350);  // retry keeps first_presented
  tracker.on_writeback_sent(CoreId{1});
  tracker.on_completed(CoreId{1}, 400);
  EXPECT_EQ(tracker.completed_requests(), 1);
  const auto& record = tracker.records().front();
  EXPECT_EQ(record.core, CoreId{1});
  EXPECT_EQ(record.first_presented, 150);
  EXPECT_EQ(record.presentations, 2);
  EXPECT_EQ(record.writebacks_during, 1);
  EXPECT_EQ(record.service_latency(), 250);
  EXPECT_EQ(record.total_latency(), 300);
  EXPECT_EQ(tracker.service_latency(CoreId{1}).max(), 250);
  EXPECT_EQ(tracker.max_service_latency(), 250);
  EXPECT_EQ(tracker.worst_request().line, 0x5u);
  EXPECT_FALSE(tracker.has_inflight(CoreId{1}));
}

TEST(RequestTracker, OneOutstandingPerCore) {
  RequestTracker tracker(2);
  tracker.begin(CoreId{0}, 0x1, AccessType::kRead, 0);
  EXPECT_THROW(tracker.begin(CoreId{0}, 0x2, AccessType::kRead, 5),
               AssertionError);
  // Other cores are independent.
  EXPECT_NO_THROW(tracker.begin(CoreId{1}, 0x2, AccessType::kRead, 5));
}

TEST(RequestTracker, CompletionRequiresPresentation) {
  RequestTracker tracker(1);
  tracker.begin(CoreId{0}, 0x1, AccessType::kRead, 0);
  EXPECT_THROW(tracker.on_completed(CoreId{0}, 100), AssertionError);
}

TEST(RequestTracker, PresentationRequiresInflightRequest) {
  RequestTracker tracker(2);
  EXPECT_THROW(tracker.on_presented(CoreId{0}, 0), AssertionError);
  EXPECT_THROW(tracker.on_presented(CoreId{2}, 0), AssertionError);
}

TEST(RequestTracker, WritebackWithoutInflightIsIgnored) {
  RequestTracker tracker(1);
  EXPECT_NO_THROW(tracker.on_writeback_sent(CoreId{0}));
}

TEST(RequestTracker, RecordsRequireOptIn) {
  RequestTracker tracker(1, /*keep_records=*/false);
  EXPECT_THROW((void)tracker.records(), AssertionError);
  EXPECT_THROW((void)tracker.worst_request(), AssertionError);
}

TEST(RequestTracker, WorstTracksMaximum) {
  RequestTracker tracker(2);
  for (int i = 1; i <= 3; ++i) {
    tracker.begin(CoreId{0}, 0x1, AccessType::kRead, 0);
    tracker.on_presented(CoreId{0}, 0);
    tracker.on_completed(CoreId{0}, i * 100);
  }
  EXPECT_EQ(tracker.worst_request().service_latency(), 300);
  EXPECT_EQ(tracker.service_latency(CoreId{0}).count(), 3);
  EXPECT_EQ(tracker.service_latency(CoreId{0}).min(), 100);
}

}  // namespace
}  // namespace psllc::core
