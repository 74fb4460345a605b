// Differential battery for the replay kernel, core::BasicSystem::run's
// idle-slot skip search (core/system.h): across a randomized (backend
// variant × partition notation × workload shape × record retention) grid,
// sim::replay() and sim::replay_every_slot(), which steps every slot of the
// same system, must produce bit-identical RunMetrics — every scalar, every
// per-core vector, every LLC and memory counter — and identical trace-log
// streams. Also covers the shared/mirrored workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/log.h"
#include "core/system.h"
#include "llc/partition.h"
#include "mem/memory_backend.h"
#include "sim/experiment.h"
#include "sim/replay.h"
#include "sim/workload.h"

namespace psllc::sim {
namespace {

/// Runs `request` skipping idle slots and stepping every slot; returns
/// {kernel, legacy} metrics.
std::pair<RunMetrics, RunMetrics> run_both(const ReplayRequest& request) {
  const RunMetrics kernel = replay(request).metrics;
  return {kernel, replay_every_slot(request).metrics};
}

/// Workload shapes chosen to stress different kernel regimes: dense
/// LLC-heavy traffic (bus saturated, no slot skipped), cache-resident
/// small footprints (local fast path), think-time gaps (idle-slot
/// skipping), a write-heavy mix (eviction/write-back traffic), and
/// periodic tasks whose activation gaps span hundreds of slots — solo on
/// one core, on every core, and with a cache-resident footprint.
struct Shape {
  const char* name;
  std::int64_t range_bytes;
  int accesses;
  double write_fraction;
  Cycle gap;
  int cores = 4;  ///< cores given a trace; the system has 4
};

constexpr Shape kShapes[] = {
    {"dense", 65536, 1500, 0.4, 0},
    {"resident", 2048, 1500, 0.25, 0},
    {"gappy", 32768, 800, 0.25, 9},
    {"writeheavy", 32768, 1200, 0.9, 0},
    {"solo_periodic", 32768, 300, 0.25, 20000, 1},
    {"periodic", 32768, 300, 0.25, 24000},
    {"resident_gap", 2048, 300, 0.25, 4000},
};

TEST(KernelDifferential, MatchesLegacyAcrossBackendsNotationsAndShapes) {
  const char* notations[] = {"SS(1,4,4)", "NSS(1,4,4)", "SS(2,2,4)",
                             "NSS(32,2,4)", "P(1,2)"};
  std::uint64_t seed = 555;
  for (const mem::BackendVariant& variant :
       mem::registered_backend_variants()) {
    for (const char* notation : notations) {
      const Shape& shape = kShapes[seed % std::size(kShapes)];
      ++seed;
      RandomWorkloadOptions workload;
      workload.range_bytes = shape.range_bytes;
      workload.accesses = shape.accesses;
      workload.write_fraction = shape.write_fraction;
      workload.gap = shape.gap;
      const std::vector<core::Trace> traces =
          make_disjoint_random_workload(shape.cores, workload, seed);
      for (const bool keep_records : {false, true}) {
        core::ExperimentSetup setup = core::make_paper_setup(notation, 4);
        setup.config.dram = variant.config;
        setup.config.keep_request_records = keep_records;
        setup.config.validate();
        ReplayRequest request;
        request.setup = &setup;
        request.workload.per_core = &traces;
        const std::string label = variant.label + " " + notation + " " +
                                  shape.name +
                                  (keep_records ? " records" : "");
        const auto [kernel, legacy] = run_both(request);
        EXPECT_TRUE(kernel == legacy) << label;
        EXPECT_TRUE(legacy.completed) << label;
      }
    }
  }
}

// A horizon shorter than the workload: both engines must agree on the
// incomplete outcome too (end_cycle pinned to the horizon, DNF per-core
// finish markers, identical partial counters).
TEST(KernelDifferential, MatchesLegacyOnTruncatedHorizon) {
  RandomWorkloadOptions workload;
  workload.range_bytes = 65536;
  workload.accesses = 4000;
  const std::vector<core::Trace> traces =
      make_disjoint_random_workload(4, workload, 9001);
  const core::ExperimentSetup setup = core::make_paper_setup("SS(1,4,4)", 4);
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  request.options.max_cycles = 20000;
  const auto [kernel, legacy] = run_both(request);
  EXPECT_FALSE(legacy.completed);
  EXPECT_TRUE(kernel == legacy) << "truncated";
}

// One core re-reads a single line (private hits, back to back, so an access
// starts exactly at each slot boundary after a refill) while the other
// streams misses through the same two-way LLC set, so every few slots an
// eviction back-invalidates the hitting core's line. The kernel advances
// the hitting core between executed slots; running it even one cycle past
// a slot boundary would let it hit a line the reference driver has already
// invalidated.
TEST(KernelDifferential, MatchesLegacyWhenEvictionsRaceLocalHits) {
  core::Trace hitter;
  core::Trace streamer;
  for (int i = 0; i < 3000; ++i) {
    hitter.push_back(core::MemOp{0x40, AccessType::kRead, 0});
    streamer.push_back(core::MemOp{
        0x100000 + static_cast<Addr>(i) * 64, AccessType::kRead, 0});
  }
  const std::vector<core::Trace> traces{hitter, streamer};
  const core::ExperimentSetup setup = core::make_paper_setup("NSS(1,2,2)", 2);
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  const auto [kernel, legacy] = run_both(request);
  EXPECT_TRUE(legacy.completed);
  EXPECT_GT(legacy.per_core_misses[0], 1);  // the evictions reached core 0
  EXPECT_TRUE(kernel == legacy);
}

// A miss whose issue cycle is exactly a slot start is eligible in that
// slot. Core 0's first miss is served in its slot 4 (cycles 200-250); the
// second waits 139 cycles and issues at cycle 400, the start of its own
// slot 8, after idle slots the search skips. Rounding that slot up would
// serve the miss a whole TDM period late.
TEST(KernelDifferential, MatchesLegacyWhenAMissIssuesOnASlotBoundary) {
  const std::vector<core::Trace> traces{
      core::Trace{core::MemOp{0x1000, AccessType::kRead, 0},
                  core::MemOp{0x2000, AccessType::kRead, 139}}};
  const core::ExperimentSetup setup = core::make_paper_setup("SS(1,4,4)", 4);
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  const auto [kernel, legacy] = run_both(request);
  EXPECT_EQ(legacy.per_core_finish[0], 450);
  EXPECT_TRUE(kernel == legacy) << "miss on a slot boundary";
}

// Fewer traces than cores (idle cores) and the empty-trace edge.
TEST(KernelDifferential, MatchesLegacyWithIdleCores) {
  RandomWorkloadOptions workload;
  workload.range_bytes = 16384;
  workload.accesses = 1000;
  std::vector<core::Trace> traces =
      make_disjoint_random_workload(2, workload, 321);
  traces.push_back(core::Trace{});  // explicitly empty third core
  const core::ExperimentSetup setup = core::make_paper_setup("SS(1,4,4)", 4);
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  const auto [kernel, legacy] = run_both(request);
  EXPECT_TRUE(kernel == legacy) << "idle cores";
}

// Shared-trace replay, solo and mirrored into per-core windows — the
// corpus runner's two workload forms.
TEST(KernelDifferential, MatchesLegacyOnSharedWorkloads) {
  RandomWorkloadOptions workload;
  workload.range_bytes = 16384;
  workload.accesses = 1200;
  workload.write_fraction = 0.5;
  const core::Trace trace = make_uniform_random_trace(0, workload, 777);
  const core::ExperimentSetup setup = core::make_paper_setup("NSS(1,4,4)", 4);
  for (const int replicas : {1, 4}) {
    ReplayRequest request;
    request.setup = &setup;
    request.workload.shared = &trace;
    request.workload.replicas = replicas;
    request.workload.window = replicas > 1 ? Addr{1} << 20 : 0;
    const std::string label = "shared x" + std::to_string(replicas);
    const auto [kernel, legacy] = run_both(request);
    EXPECT_TRUE(kernel == legacy) << label;
  }
}

/// What the reference driver saw after each slot it stepped.
struct SlotLog {
  std::vector<bool> busy;        ///< the slot carried a bus action
  std::vector<bool> transition;  ///< a mode transition was still draining
  std::vector<bool> lane0_done;  ///< lane 0's trace had finished
};

/// Steps `traces` on core::System to completion, logging every slot.
SlotLog log_reference_slots(const core::ExperimentSetup& setup,
                            const std::vector<core::Trace>& traces) {
  core::System system(setup);
  for (std::size_t c = 0; c < traces.size(); ++c) {
    system.set_trace(CoreId{static_cast<int>(c)}, traces[c]);
  }
  SlotLog log;
  system.add_slot_observer([&](const core::SlotEvent& event) {
    log.busy.push_back(event.action != core::SlotEvent::Action::kIdle);
    log.transition.push_back(system.llc().transition_active());
    log.lane0_done.push_back(system.trace_done(CoreId{0}));
  });
  EXPECT_TRUE(system.run(RunOptions{}.max_cycles).all_done);
  return log;
}

/// A busy stretch [first, last]: busy slots with an idle slot on each side,
/// so the kernel's search lands on `first` and steps the rest.
struct Stretch {
  std::int64_t first = -1;
  std::int64_t last = -1;
};

/// The first busy stretch at or after slot `from` of at least `min_length`
/// slots, or {-1, -1}.
Stretch find_stretch(const std::vector<bool>& busy, std::int64_t from,
                     std::int64_t min_length) {
  const auto n = static_cast<std::int64_t>(busy.size());
  for (std::int64_t a = std::max<std::int64_t>(from, 1); a < n; ++a) {
    if (busy[static_cast<std::size_t>(a - 1)] ||
        !busy[static_cast<std::size_t>(a)]) {
      continue;
    }
    std::int64_t b = a;
    while (b + 1 < n && busy[static_cast<std::size_t>(b + 1)]) {
      ++b;
    }
    if (b + 1 < n && b - a + 1 >= min_length) {
      return {a, b};
    }
    a = b;
  }
  return {};
}

std::vector<core::Trace> dense_traces(int cores, int accesses,
                                      std::uint64_t seed) {
  RandomWorkloadOptions workload;
  workload.range_bytes = 65536;
  workload.accesses = accesses;
  workload.write_fraction = 0.4;
  return make_disjoint_random_workload(cores, workload, seed);
}

// The kernel steps the slots after each action slot directly while they
// stay busy. A horizon can end such a stretch: one slot after its action
// slot, mid-way, at its last slot, and at the idle slot that closes it.
TEST(KernelStepping, MatchesLegacyWhenHorizonCutsABusyStretch) {
  const std::vector<core::Trace> traces = dense_traces(4, 800, 606);
  const core::ExperimentSetup setup = core::make_paper_setup("SS(1,4,4)", 4);
  const SlotLog log = log_reference_slots(setup, traces);
  const Stretch stretch = find_stretch(log.busy, 50, 6);
  ASSERT_GE(stretch.first, 0) << "no busy stretch of 6 slots";
  const std::int64_t a = stretch.first;
  const std::int64_t b = stretch.last;
  for (const std::int64_t horizon :
       {a + 1, a + 2, (a + b) / 2 + 1, b, b + 1, b + 2}) {
    ReplayRequest request;
    request.setup = &setup;
    request.workload.per_core = &traces;
    request.options.max_cycles = horizon * setup.config.slot_width;
    const auto [kernel, legacy] = run_both(request);
    EXPECT_FALSE(legacy.completed) << "horizon " << horizon;
    EXPECT_TRUE(kernel == legacy)
        << "stretch [" << a << ", " << b << "] horizon " << horizon;
  }
}

// A repartition epoch in the middle of a long busy stretch: the mode
// switch fires in a stepped slot, and the drain it starts is pumped by the
// stepped slots after it.
TEST(KernelStepping, MatchesLegacyWhenATransitionFiresInsideAStretch) {
  const std::vector<core::Trace> traces = dense_traces(4, 1000, 707);
  core::ExperimentSetup setup = core::make_paper_setup("SS(1,4,4)", 4);
  const Stretch stretch =
      find_stretch(log_reference_slots(setup, traces).busy, 1, 200);
  ASSERT_GE(stretch.first, 0) << "no busy stretch of 200 slots";
  const std::int64_t epoch_slot = stretch.first + 100;
  const Cycle W = setup.config.slot_width;
  const llc::PartitionMap initial = setup.partitions();
  llc::PartitionProgram program(initial);
  program.add_mode(llc::make_way_bounced_map(initial, 1), epoch_slot * W, {},
                   "bounce");
  program.add_mode(initial, (epoch_slot + 400) * W, {}, "restore");
  setup.program = std::move(program);

  const SlotLog log = log_reference_slots(setup, traces);
  const auto e = static_cast<std::size_t>(epoch_slot);
  ASSERT_LT(e + 1, log.busy.size());
  EXPECT_TRUE(log.busy[e - 1] && log.busy[e] && log.busy[e + 1])
      << "the epoch slot is not inside a stretch";
  EXPECT_TRUE(log.transition[e]) << "the drain ended in the epoch slot";

  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  const auto [kernel, legacy] = run_both(request);
  EXPECT_TRUE(legacy.completed);
  EXPECT_EQ(legacy.llc_stats.repartitions, 2);
  EXPECT_GT(legacy.llc_stats.drain_back_invals, 0);
  EXPECT_TRUE(kernel == legacy) << "transition in a stretch";
  for (const std::int64_t horizon : {epoch_slot + 1, epoch_slot + 3}) {
    request.options.max_cycles = horizon * W;
    const auto [cut_kernel, cut_legacy] = run_both(request);
    EXPECT_TRUE(cut_kernel == cut_legacy) << "horizon " << horizon;
  }
}

// Lane 0 runs out of ops while the other lanes keep the bus saturated, so
// its finish time and done slot are set inside a stepped stretch; horizons
// right after the finish must agree too.
TEST(KernelStepping, MatchesLegacyWhenALaneFinishesMidStretch) {
  std::vector<core::Trace> traces = dense_traces(4, 1000, 808);
  traces[0].resize(60);
  const core::ExperimentSetup setup = core::make_paper_setup("SS(1,4,4)", 4);
  const SlotLog log = log_reference_slots(setup, traces);
  const auto done = static_cast<std::size_t>(
      std::find(log.lane0_done.begin(), log.lane0_done.end(), true) -
      log.lane0_done.begin());
  ASSERT_GT(done, 0U);
  ASSERT_LT(done + 1, log.busy.size());
  EXPECT_TRUE(log.busy[done - 1] && log.busy[done] && log.busy[done + 1])
      << "lane 0 finished outside a busy stretch (slot " << done << ")";

  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  const auto [kernel, legacy] = run_both(request);
  EXPECT_TRUE(legacy.completed);
  EXPECT_TRUE(kernel == legacy) << "lane finished mid-stretch";
  const auto done_slot = static_cast<std::int64_t>(done);
  for (const std::int64_t horizon :
       {done_slot, done_slot + 1, done_slot + 2}) {
    request.options.max_cycles = horizon * setup.config.slot_width;
    const auto [cut_kernel, cut_legacy] = run_both(request);
    EXPECT_TRUE(cut_kernel == cut_legacy) << "horizon " << horizon;
  }
}

/// Captures every log line at kTrace while alive.
class LogCapture {
 public:
  LogCapture() : saved_level_(Logger::instance().level()) {
    Logger::instance().set_level(LogLevel::kTrace);
    saved_sink_ = Logger::instance().set_sink(
        [this](LogLevel, const std::string& line) { lines_.push_back(line); });
  }
  ~LogCapture() {
    Logger::instance().set_sink(std::move(saved_sink_));
    Logger::instance().set_level(saved_level_);
  }
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;

  [[nodiscard]] std::vector<std::string> take() {
    return std::exchange(lines_, {});
  }

 private:
  LogLevel saved_level_;
  Logger::Sink saved_sink_;
  std::vector<std::string> lines_;
};

// Idle slots log nothing, so skipping them leaves the trace log intact:
// both engines narrate the same bus actions in the same slot order.
TEST(KernelDifferential, TraceLogStreamsMatch) {
  RandomWorkloadOptions workload;
  workload.range_bytes = 8192;
  workload.accesses = 600;
  workload.write_fraction = 0.4;
  workload.gap = 9;
  const std::vector<core::Trace> traces =
      make_disjoint_random_workload(4, workload, 88);
  const core::ExperimentSetup setup = core::make_paper_setup("NSS(1,4,4)", 4);
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;

  LogCapture capture;
  (void)replay(request);
  const std::vector<std::string> kernel = capture.take();
  (void)replay_every_slot(request);
  const std::vector<std::string> legacy = capture.take();
  EXPECT_FALSE(kernel.empty());
  EXPECT_TRUE(kernel == legacy) << kernel.size() << " kernel lines vs "
                                << legacy.size() << " legacy lines";
}

TEST(ReplayRequest, ExactlyOneWorkloadSourceRequired) {
  const core::ExperimentSetup setup = core::make_paper_setup("SS(1,4,4)", 4);
  ReplayRequest request;
  request.setup = &setup;
  EXPECT_THROW((void)replay(request), ConfigError);  // no source at all
  const core::Trace trace{core::MemOp{0, AccessType::kRead, 0}};
  const std::vector<core::Trace> traces{trace};
  request.workload.per_core = &traces;
  request.workload.shared = &trace;
  EXPECT_THROW((void)replay(request), ConfigError);  // two sources
}

// The sweep harness must stay bit-identical across worker-thread counts
// with the kernel on the hot path (cells route through the default engine).
TEST(KernelDifferential, SweepDeterministicAcrossThreadCounts) {
  SweepOptions serial;
  serial.address_ranges = {4096, 32768};
  serial.accesses_per_core = 1000;
  serial.seed = 31;
  serial.threads = 1;
  SweepOptions parallel = serial;
  parallel.threads = 4;
  const std::vector<SweepConfig> configs = {{"SS(1,4,4)", 4},
                                            {"NSS(1,4,4)", 4}};
  const SweepResult a = run_sweep(configs, serial);
  const SweepResult b = run_sweep(configs, parallel);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_TRUE(a.cells[i].metrics == b.cells[i].metrics) << "cell " << i;
  }
}

}  // namespace
}  // namespace psllc::sim
