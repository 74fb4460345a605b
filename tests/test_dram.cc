// Memory-backend conformance battery. Every registered backend variant must
// honor the WCL contract of mem/memory_backend.h under randomized address
// streams: no single access above worst_case_latency(), counters that sum
// correctly, row-hit/miss accounting that matches an independent reference
// model, and config validation that rejects inconsistent parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "mem/memory_backend.h"

namespace psllc::mem {
namespace {

using Variant = BackendVariant;

/// Every variant the conformance battery covers: the registered list (the
/// same one the WCL property grid and the ablation_dram_backend bench
/// sweep) plus boundary configurations worth stressing.
std::vector<Variant> all_variants() {
  std::vector<Variant> variants = registered_backend_variants();

  DramConfig tiny_queue;
  tiny_queue.backend = MemoryBackendKind::kWriteQueue;
  tiny_queue.wq_capacity = 1;
  variants.push_back({"writequeue_tiny", tiny_queue});
  return variants;
}

/// One deterministic access: bursty timestamps (frequently equal `now`, so
/// write-queue back-pressure is actually reachable) over a line space much
/// larger than any row-buffer working set.
struct Access {
  LineAddr line = 0;
  bool is_write = false;
  Cycle now = 0;
};

std::vector<Access> random_stream(std::uint64_t seed, int length) {
  Rng rng(mix_seed(seed, 0xd7a0));
  std::vector<Access> stream;
  stream.reserve(static_cast<std::size_t>(length));
  Cycle now = 0;
  for (int i = 0; i < length; ++i) {
    now += static_cast<Cycle>(rng.next_below(4));  // 0..3: often same cycle
    stream.push_back(Access{rng.next_below(1 << 20), rng.next_bool(0.5), now});
  }
  return stream;
}

Cycle apply(MemoryBackend& backend, const Access& access) {
  return access.is_write ? backend.write(access.line, access.now)
                         : backend.read(access.line, access.now);
}

class BackendConformance : public ::testing::TestWithParam<Variant> {};

TEST_P(BackendConformance, ObservedLatencyNeverExceedsWorstCase) {
  const Variant& variant = GetParam();
  const auto backend = variant.config.make_backend();
  const Cycle worst = backend->worst_case_latency();
  EXPECT_GT(worst, 0);
  // The config-level bound is the backend-supplied one (the value
  // SystemConfig::validate sizes the TDM slot against).
  EXPECT_EQ(variant.config.worst_case_latency(), worst);
  for (const Access& access : random_stream(1, 20000)) {
    const Cycle latency = apply(*backend, access);
    ASSERT_GT(latency, 0);
    ASSERT_LE(latency, worst) << variant.label;
  }
  EXPECT_LE(backend->counters().max_latency, worst);
  // The bound must not drift as state accumulates.
  EXPECT_EQ(backend->worst_case_latency(), worst);
}

TEST_P(BackendConformance, CountersSumCorrectly) {
  const Variant& variant = GetParam();
  const auto backend = variant.config.make_backend();
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  for (const Access& access : random_stream(2, 10000)) {
    (void)apply(*backend, access);
    ++(access.is_write ? writes : reads);
  }
  const MemoryCounters& counters = backend->counters();
  EXPECT_EQ(counters.reads, reads);
  EXPECT_EQ(counters.writes, writes);
  EXPECT_EQ(counters.accesses(), reads + writes);
  switch (variant.config.backend) {
    case MemoryBackendKind::kFixedLatency:
      EXPECT_EQ(counters.row_hits + counters.row_misses, 0);
      EXPECT_EQ(counters.queued_writes, 0);
      break;
    case MemoryBackendKind::kBankRow:
      // Every access resolves to exactly one row-buffer outcome.
      EXPECT_EQ(counters.row_hits + counters.row_misses, reads + writes);
      if (variant.config.page_policy == PagePolicy::kClosedPage) {
        EXPECT_EQ(counters.row_hits, 0);
      }
      break;
    case MemoryBackendKind::kWriteQueue: {
      // No lost write-backs: everything queued either drained or is still
      // buffered, and the buffer never exceeded its physical capacity.
      const auto& queue =
          dynamic_cast<const WriteQueueBackend&>(*backend);
      EXPECT_EQ(counters.queued_writes, writes);
      EXPECT_EQ(counters.drained_writes + queue.pending_queue_depth(),
                counters.queued_writes);
      EXPECT_LE(counters.max_queue_depth, variant.config.wq_capacity);
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendConformance, ::testing::ValuesIn(all_variants()),
    [](const ::testing::TestParamInfo<Variant>& info) {
      return info.param.label;
    });

// --- bank/row reference model ----------------------------------------------

/// Independent re-derivation of the bank/row mapping and open-row tracking,
/// against which the backend's accounting is checked access by access.
struct ReferenceRowModel {
  explicit ReferenceRowModel(const DramConfig& config) : config(config) {}

  bool access_hits(LineAddr line) {
    if (config.page_policy == PagePolicy::kClosedPage) {
      return false;
    }
    const auto banks = static_cast<LineAddr>(config.num_banks);
    const auto lines_per_row =
        static_cast<LineAddr>(config.row_bytes / config.line_bytes);
    int bank = 0;
    std::int64_t row = 0;
    if (config.bank_mapping == BankMapping::kLineInterleaved) {
      bank = static_cast<int>(line % banks);
      row = static_cast<std::int64_t>((line / banks) / lines_per_row);
    } else {
      bank = static_cast<int>((line / lines_per_row) % banks);
      row = static_cast<std::int64_t>((line / lines_per_row) / banks);
    }
    const auto it = open.find(bank);
    const bool hit = it != open.end() && it->second == row;
    open[bank] = row;
    return hit;
  }

  DramConfig config;
  std::unordered_map<int, std::int64_t> open;
};

class BankRowAccounting : public ::testing::TestWithParam<Variant> {};

TEST_P(BankRowAccounting, MatchesReferenceModel) {
  const Variant& variant = GetParam();
  const auto backend = variant.config.make_backend();
  ReferenceRowModel reference(variant.config);
  std::int64_t expected_hits = 0;
  std::int64_t expected_misses = 0;
  for (const Access& access : random_stream(4, 15000)) {
    const bool hit = reference.access_hits(access.line);
    ++(hit ? expected_hits : expected_misses);
    const Cycle latency = apply(*backend, access);
    const Cycle expected =
        variant.config.page_policy == PagePolicy::kClosedPage
            ? variant.config.closed_page_latency
            : (hit ? variant.config.row_hit_latency
                   : variant.config.row_miss_latency);
    ASSERT_EQ(latency, expected) << variant.label;
  }
  EXPECT_EQ(backend->counters().row_hits, expected_hits);
  EXPECT_EQ(backend->counters().row_misses, expected_misses);
}

INSTANTIATE_TEST_SUITE_P(
    BankRowVariants, BankRowAccounting,
    ::testing::ValuesIn([] {
      std::vector<Variant> bankrow;
      for (const Variant& variant : all_variants()) {
        if (variant.config.backend == MemoryBackendKind::kBankRow) {
          bankrow.push_back(variant);
        }
      }
      return bankrow;
    }()),
    [](const ::testing::TestParamInfo<Variant>& info) {
      return info.param.label;
    });

TEST(BankRowBackend, RowInterleavedKeepsConsecutiveLinesInOneRow) {
  DramConfig config;
  config.backend = MemoryBackendKind::kBankRow;
  config.num_banks = 2;
  config.row_bytes = 2048;
  config.row_hit_latency = 10;
  config.row_miss_latency = 40;
  BankRowBackend backend(config);
  // First access to a row: miss; the second to the same row: hit.
  EXPECT_EQ(backend.read(0, 0), 40);
  EXPECT_EQ(backend.read(1, 10), 10);  // same 2 KiB row
  // A line in a different row of the same bank: miss again.
  const LineAddr far_line = (2048 / 64) * 2;  // skips to the bank's next row
  EXPECT_EQ(backend.read(far_line, 20), 40);
  EXPECT_EQ(backend.counters().row_hits, 1);
  EXPECT_EQ(backend.counters().row_misses, 2);
  EXPECT_EQ(config.worst_case_latency(), 40);
}

TEST(BankRowBackend, LineInterleavedStripesConsecutiveLinesAcrossBanks) {
  DramConfig config;
  config.backend = MemoryBackendKind::kBankRow;
  config.bank_mapping = BankMapping::kLineInterleaved;
  config.num_banks = 4;
  BankRowBackend backend(config);
  // Lines 0..3 land in four different banks: four row activations.
  for (LineAddr line = 0; line < 4; ++line) {
    EXPECT_EQ(backend.bank_of(line), static_cast<int>(line));
    EXPECT_EQ(backend.read(line, static_cast<Cycle>(line)),
              config.row_miss_latency);
  }
  // The next stripe revisits the same (bank, row) pairs: all hits.
  for (LineAddr line = 4; line < 8; ++line) {
    EXPECT_EQ(backend.read(line, static_cast<Cycle>(line)),
              config.row_hit_latency);
  }
  EXPECT_EQ(backend.counters().row_hits, 4);
  EXPECT_EQ(backend.counters().row_misses, 4);
}

TEST(BankRowBackend, ClosedPageIsAccessInvariant) {
  DramConfig config;
  config.backend = MemoryBackendKind::kBankRow;
  config.page_policy = PagePolicy::kClosedPage;
  BankRowBackend backend(config);
  // Even perfectly row-local streams pay the same (lower) activation cost.
  EXPECT_EQ(backend.read(0, 0), config.closed_page_latency);
  EXPECT_EQ(backend.read(0, 5), config.closed_page_latency);
  EXPECT_EQ(backend.read(1, 9), config.closed_page_latency);
  EXPECT_EQ(backend.counters().row_hits, 0);
  EXPECT_EQ(backend.counters().row_misses, 3);
  // Closed page trades row hits for a tighter worst case.
  EXPECT_LT(config.worst_case_latency(), config.row_miss_latency);
  EXPECT_GT(config.worst_case_latency(), config.row_hit_latency);
}

// --- write-queue behavior ---------------------------------------------------

TEST(WriteQueueBackend, WritesTakeTheFastPathWhileQueueHasRoom) {
  DramConfig config;
  config.backend = MemoryBackendKind::kWriteQueue;
  WriteQueueBackend backend(config);
  EXPECT_EQ(backend.write(0x10, 0), config.wq_enqueue_latency);
  EXPECT_EQ(backend.pending_queue_depth(), 1);
  // Reads bypass the queue entirely.
  EXPECT_EQ(backend.read(0x20, 0), config.fixed_latency);
  // After a drain period the buffered write has retired.
  EXPECT_EQ(backend.read(0x30, config.wq_drain_period + 1),
            config.fixed_latency);
  EXPECT_EQ(backend.pending_queue_depth(), 0);
  EXPECT_EQ(backend.counters().drained_writes, 1);
}

TEST(WriteQueueBackend, BackPressureForcesOneSynchronousHeadDrain) {
  DramConfig config;
  config.backend = MemoryBackendKind::kWriteQueue;
  config.wq_capacity = 2;
  WriteQueueBackend backend(config);
  const Cycle stalled = config.fixed_latency + config.wq_enqueue_latency;
  EXPECT_EQ(backend.write(1, 0), config.wq_enqueue_latency);
  EXPECT_EQ(backend.write(2, 0), config.wq_enqueue_latency);
  // Queue full: the third write pays the synchronous head drain — the
  // documented worst-case term, independent of the background drain rate.
  EXPECT_EQ(backend.write(3, 0), stalled);
  EXPECT_EQ(backend.counters().write_stalls, 1);
  EXPECT_EQ(backend.counters().drained_writes, 1);
  EXPECT_EQ(backend.pending_queue_depth(), 2);
  EXPECT_EQ(backend.worst_case_latency(), stalled);
  // Sustained overload (writes every cycle, forever) keeps paying the same
  // bounded premium — the stall never grows with queue history.
  for (Cycle now = 1; now <= 50; ++now) {
    ASSERT_EQ(backend.write(100 + static_cast<LineAddr>(now), now), stalled);
  }
  EXPECT_EQ(backend.counters().write_stalls, 51);
  EXPECT_LE(backend.counters().max_queue_depth, config.wq_capacity);
}

TEST(WriteQueueBackend, NeverLosesWritebacksUnderSaturation) {
  DramConfig config;
  config.backend = MemoryBackendKind::kWriteQueue;
  config.wq_capacity = 3;
  WriteQueueBackend backend(config);
  Rng rng(mix_seed(0xbeef));
  Cycle now = 0;
  std::int64_t writes = 0;
  for (int i = 0; i < 5000; ++i) {
    now += static_cast<Cycle>(rng.next_below(3));  // faster than the drain
    (void)backend.write(static_cast<LineAddr>(i), now);
    ++writes;
    const MemoryCounters& counters = backend.counters();
    ASSERT_EQ(counters.drained_writes + backend.pending_queue_depth(),
              counters.queued_writes);
    ASSERT_LE(backend.pending_queue_depth(), config.wq_capacity);
  }
  EXPECT_EQ(backend.counters().queued_writes, writes);
  EXPECT_LE(backend.counters().max_queue_depth, config.wq_capacity);
  EXPECT_GT(backend.counters().write_stalls, 0);  // saturation was real
}

// --- configuration validation ------------------------------------------------

TEST(DramConfig, ValidationRejectsInconsistentParameters) {
  DramConfig config;
  config.fixed_latency = 0;
  EXPECT_THROW((void)config.make_backend(), ConfigError);
  config = DramConfig{};
  config.line_bytes = 100;  // not a power of two
  EXPECT_THROW((void)config.make_backend(), ConfigError);
  config = DramConfig{};
  config.backend = MemoryBackendKind::kBankRow;
  config.row_bytes = 32;  // smaller than a line
  EXPECT_THROW((void)config.make_backend(), ConfigError);
  config = DramConfig{};
  config.backend = MemoryBackendKind::kBankRow;
  config.row_bytes = 96;  // not a whole number of 64 B lines
  EXPECT_THROW((void)config.make_backend(), ConfigError);
  config = DramConfig{};
  config.backend = MemoryBackendKind::kBankRow;
  config.row_hit_latency = 50;
  config.row_miss_latency = 40;  // hit > miss
  EXPECT_THROW((void)config.make_backend(), ConfigError);
  config = DramConfig{};
  config.backend = MemoryBackendKind::kWriteQueue;
  config.wq_capacity = 0;
  EXPECT_THROW((void)config.make_backend(), ConfigError);
  config = DramConfig{};
  config.backend = MemoryBackendKind::kWriteQueue;
  config.wq_drain_period = 0;
  EXPECT_THROW((void)config.make_backend(), ConfigError);
}

TEST(DramConfig, WorstCaseIsSuppliedByTheSelectedBackend) {
  DramConfig config;
  EXPECT_EQ(config.worst_case_latency(), config.fixed_latency);
  config.backend = MemoryBackendKind::kBankRow;
  EXPECT_EQ(config.worst_case_latency(), config.row_miss_latency);
  config.page_policy = PagePolicy::kClosedPage;
  EXPECT_EQ(config.worst_case_latency(), config.closed_page_latency);
  config.backend = MemoryBackendKind::kWriteQueue;
  EXPECT_EQ(config.worst_case_latency(),
            config.fixed_latency + config.wq_enqueue_latency);
  config.fixed_latency = 100;  // the synchronous-drain term scales with it
  EXPECT_EQ(config.worst_case_latency(), 100 + config.wq_enqueue_latency);
}

TEST(DramConfig, BackendKindNamesRoundTrip) {
  for (const auto kind :
       {MemoryBackendKind::kFixedLatency, MemoryBackendKind::kBankRow,
        MemoryBackendKind::kWriteQueue}) {
    EXPECT_EQ(backend_kind_from_string(to_string(kind)), kind);
    DramConfig config;
    config.backend = kind;
    EXPECT_EQ(config.make_backend()->name(), to_string(kind));
  }
  EXPECT_THROW((void)backend_kind_from_string("sram"), ConfigError);
}

TEST(DramConfig, PolicyAndMappingNamesAreStable) {
  EXPECT_EQ(to_string(PagePolicy::kOpenPage), "open");
  EXPECT_EQ(to_string(PagePolicy::kClosedPage), "closed");
  EXPECT_EQ(to_string(BankMapping::kRowInterleaved), "row-interleaved");
  EXPECT_EQ(to_string(BankMapping::kLineInterleaved), "line-interleaved");
}

}  // namespace
}  // namespace psllc::mem
