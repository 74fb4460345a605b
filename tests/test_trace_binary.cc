// Tests for the PSLT binary trace format: header/record codecs, the
// mmap-backed MappedTrace view, randomized round-trip identity with
// core::Trace through files, and the malformed-file battery (bad magic,
// truncated header/record, wrong version, trailing bytes, bad type byte).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "trace/binary_io.h"
#include "trace/format.h"
#include "trace/mapped_trace.h"

namespace psllc::trace {
namespace {

core::Trace sample_trace() {
  return core::Trace{
      core::MemOp{0x0, AccessType::kRead, 0},
      core::MemOp{0x1FC0, AccessType::kWrite, 12},
      core::MemOp{0xFFFF'FFFF'FFFF'FFFFull, AccessType::kIfetch, kMaxGap},
      core::MemOp{0x4000'0000'0000ull, AccessType::kRead, 1},
  };
}

core::Trace random_trace(std::uint64_t seed, int ops) {
  Rng rng(seed);
  core::Trace trace;
  trace.reserve(static_cast<std::size_t>(ops));
  for (int i = 0; i < ops; ++i) {
    core::MemOp op;
    // Mix small, page-scale and full-width addresses.
    switch (rng.next_below(3)) {
      case 0:
        op.addr = rng.next_below(1 << 16);
        break;
      case 1:
        op.addr = rng.next_below(std::uint64_t{1} << 40);
        break;
      default:
        op.addr = rng.next_u64();
    }
    const auto type = rng.next_below(3);
    op.type = type == 0   ? AccessType::kRead
              : type == 1 ? AccessType::kWrite
                          : AccessType::kIfetch;
    op.gap = rng.next_bool(0.5)
                 ? 0
                 : rng.next_in_range(0, kMaxGap);
    trace.push_back(op);
  }
  return trace;
}

void expect_traces_equal(const core::Trace& a, const core::Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].addr, b[i].addr) << "op " << i;
    EXPECT_EQ(a[i].type, b[i].type) << "op " << i;
    EXPECT_EQ(a[i].gap, b[i].gap) << "op " << i;
  }
}

std::string encode_to_string(const core::Trace& trace,
                             const BinaryWriteOptions& options = {}) {
  std::ostringstream out(std::ios::binary);
  write_trace_binary(out, trace, options);
  return out.str();
}

std::filesystem::path temp_file(const std::string& name) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "psllc_trace_binary";
  std::filesystem::create_directories(dir);
  return dir / name;
}

// --- round trips -------------------------------------------------------------

TEST(TraceBinary, EmptyTraceRoundTrip) {
  const auto path = temp_file("empty.pslt");
  write_trace_binary_file(path.string(), core::Trace{});
  EXPECT_EQ(std::filesystem::file_size(path), kHeaderBytes);
  const MappedTrace mapped(path.string());
  EXPECT_TRUE(mapped.empty());
  EXPECT_TRUE(read_trace_binary_file(path.string()).empty());
}

TEST(TraceBinary, MappedFileRoundTrip) {
  const core::Trace trace = sample_trace();
  const auto path = temp_file("round_trip.pslt");
  write_trace_binary_file(path.string(), trace);

  MappedTrace mapped(path.string());
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(mapped.mapped());
#endif
  EXPECT_EQ(mapped.size(), trace.size());
  EXPECT_EQ(mapped.header().version, kFormatVersion);
  EXPECT_EQ(mapped.header().addr_width_bits, 64);  // max-u64 address inside
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const core::MemOp op = mapped[i];
    EXPECT_EQ(op.addr, trace[i].addr);
    EXPECT_EQ(op.type, trace[i].type);
    EXPECT_EQ(op.gap, trace[i].gap);
  }
  expect_traces_equal(mapped.to_trace(), trace);
  expect_traces_equal(read_trace_binary_file(path.string()), trace);
}

TEST(TraceBinary, RandomizedRoundTripIsBitIdentical) {
  for (const std::uint64_t seed : {1ull, 7ull, 99ull, 12345ull}) {
    const core::Trace trace =
        random_trace(seed, /*ops=*/static_cast<int>(200 + seed % 300));
    // Round trip through a file, plus re-encode identity (same bytes back).
    const std::string bytes = encode_to_string(trace);
    const auto path = temp_file("random_" + std::to_string(seed) + ".pslt");
    write_trace_binary_file(path.string(), trace);
    const core::Trace reloaded = read_trace_binary_file(path.string());
    expect_traces_equal(reloaded, trace);
    EXPECT_EQ(encode_to_string(reloaded), bytes) << "seed " << seed;
  }
}

// --- record width selection --------------------------------------------------

TEST(TraceBinary, PicksCompactRecordsForNarrowAddresses) {
  const core::Trace narrow{core::MemOp{0xFFFF'FFFFull, AccessType::kRead, 3}};
  EXPECT_EQ(encode_to_string(narrow).size(), kHeaderBytes + record_bytes(32));
  const auto path = temp_file("narrow.pslt");
  write_trace_binary_file(path.string(), narrow);
  const MappedTrace mapped(path.string());
  EXPECT_EQ(mapped.header().addr_width_bits, 32);
  expect_traces_equal(mapped.to_trace(), narrow);

  const core::Trace wide{
      core::MemOp{0x1'0000'0000ull, AccessType::kRead, 0}};
  EXPECT_EQ(encode_to_string(wide).size(), kHeaderBytes + record_bytes(64));
}

TEST(TraceBinary, ForcedWidthValidated) {
  const core::Trace wide{
      core::MemOp{0x1'0000'0000ull, AccessType::kRead, 0}};
  BinaryWriteOptions force32;
  force32.addr_width_bits = 32;
  std::ostringstream out(std::ios::binary);
  EXPECT_THROW(write_trace_binary(out, wide, force32), ConfigError);

  BinaryWriteOptions force64;
  force64.addr_width_bits = 64;
  const core::Trace narrow{core::MemOp{0x10, AccessType::kRead, 0}};
  EXPECT_EQ(encode_to_string(narrow, force64).size(),
            kHeaderBytes + record_bytes(64));
}

TEST(TraceBinary, WriterRejectsUnrepresentableOps) {
  std::ostringstream out(std::ios::binary);
  core::Trace negative_gap{core::MemOp{0x40, AccessType::kRead, -1}};
  EXPECT_THROW(write_trace_binary(out, negative_gap), ConfigError);
  EXPECT_TRUE(out.str().empty()) << "nothing may be emitted on failure";
  core::Trace huge_gap{core::MemOp{0x40, AccessType::kRead, kMaxGap + 1}};
  EXPECT_THROW(write_trace_binary(out, huge_gap), ConfigError);
  EXPECT_TRUE(out.str().empty());
}

TEST(TraceBinary, FailedFileWriteDoesNotClobberExisting) {
  // The file writer truncates on open, so it must validate first: a
  // trace the format cannot express leaves the existing file untouched.
  const auto path = temp_file("no_clobber.pslt");
  const core::Trace good = sample_trace();
  write_trace_binary_file(path.string(), good);
  const core::Trace bad{core::MemOp{0x40, AccessType::kRead, -1}};
  EXPECT_THROW(write_trace_binary_file(path.string(), bad), ConfigError);
  expect_traces_equal(read_trace_binary_file(path.string()), good);

  // Same for a forced width the addresses do not fit.
  BinaryWriteOptions force32;
  force32.addr_width_bits = 32;
  EXPECT_THROW(write_trace_binary_file(path.string(), good, force32),
               ConfigError);
  expect_traces_equal(read_trace_binary_file(path.string()), good);
}

// --- malformed inputs --------------------------------------------------------

TEST(TraceBinary, MappedTraceRejectsMalformedFiles) {
  const std::string full = encode_to_string(sample_trace());
  struct Case {
    const char* name;
    std::string bytes;
  };
  std::string bad_magic = full;
  bad_magic[1] = '?';
  std::string wrong_version = full;
  wrong_version[5] = 0x7F;  // version LE high byte
  const std::vector<Case> cases = {
      {"bad_magic.pslt", bad_magic},
      {"trunc_header.pslt", full.substr(0, 10)},
      {"trunc_record.pslt", full.substr(0, full.size() - 1)},
      {"trailing.pslt", full + "zz"},
      {"wrong_version.pslt", wrong_version},
  };
  for (const Case& c : cases) {
    const auto path = temp_file(c.name);
    std::ofstream(path, std::ios::binary) << c.bytes;
    EXPECT_THROW((void)MappedTrace(path.string()), ConfigError) << c.name;
  }
  EXPECT_THROW((void)MappedTrace(temp_file("missing.pslt").string()),
               std::runtime_error);
}

// --- batch decoding ----------------------------------------------------------

/// `ops` random ops that fit `width`-bit records.
core::Trace random_trace_of_width(std::uint64_t seed, int ops, int width) {
  core::Trace trace = random_trace(seed, ops);
  if (width == 32) {
    for (core::MemOp& op : trace) {
      op.addr &= 0xFFFF'FFFFull;
    }
  }
  return trace;
}

TEST(TraceBinary, EveryReaderDecodesTheSameOpsAtBothWidths) {
  constexpr int kOps = 2 * 4096 + 1808;
  constexpr Addr kOffset = 0x10'0000;
  for (const int width : {32, 64}) {
    SCOPED_TRACE(width);
    const core::Trace trace = random_trace_of_width(
        static_cast<std::uint64_t>(width), kOps, width);
    BinaryWriteOptions options;
    options.addr_width_bits = width;
    const auto path = temp_file("batch_" + std::to_string(width) + ".pslt");
    write_trace_binary_file(path.string(), trace, options);

    const MappedTrace mapped(path.string());
    ASSERT_EQ(mapped.header().addr_width_bits, width);
    expect_traces_equal(mapped.to_trace(), trace);
    expect_traces_equal(read_trace_binary_file(path.string()), trace);

    // Batches at a nonzero offset, one straddling each 4096-record edge of
    // the writer's staging buffer.
    for (const std::uint64_t first : {0ull, 4000ull, 8100ull}) {
      const std::uint64_t count = std::min<std::uint64_t>(300, kOps - first);
      std::vector<core::MemOp> batch(count);
      mapped.decode_batch(first, count, kOffset, batch.data());
      for (std::uint64_t i = 0; i < count; ++i) {
        const core::MemOp& want = trace[first + i];
        EXPECT_EQ(batch[i].addr, want.addr + kOffset) << "op " << first + i;
        EXPECT_EQ(batch[i].type, want.type) << "op " << first + i;
        EXPECT_EQ(batch[i].gap, want.gap) << "op " << first + i;
      }
    }
  }
}

TEST(TraceBinary, BadTypeByteInsideABatchNamesItsRecord) {
  constexpr int kOps = 2 * 4096 + 100;
  constexpr std::uint64_t kBad = 5000;
  const core::Trace trace = random_trace_of_width(3, kOps, 32);
  BinaryWriteOptions options;
  options.addr_width_bits = 32;
  std::string bytes = encode_to_string(trace, options);
  bytes[kHeaderBytes + kBad * record_bytes(32) + 4] = 3;  // first invalid
  const auto path = temp_file("bad_type_mid_batch.pslt");
  std::ofstream(path, std::ios::binary) << bytes;

  const auto expect_names_record = [&](const auto& decode) {
    try {
      decode();
      ADD_FAILURE() << "bad type byte accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("record 5000:"),
                std::string::npos)
          << e.what();
    }
  };
  const MappedTrace mapped(path.string());
  expect_names_record([&] { (void)mapped.to_trace(); });
  expect_names_record([&] {
    std::vector<core::MemOp> batch(1000);
    mapped.decode_batch(4500, batch.size(), 0, batch.data());
  });
  expect_names_record([&] { (void)read_trace_binary_file(path.string()); });
  // Batches that miss the bad record decode normally.
  std::vector<core::MemOp> clean(kBad);
  mapped.decode_batch(0, kBad, 0, clean.data());
  EXPECT_EQ(clean.back().addr, trace[kBad - 1].addr);
}

TEST(TraceBinary, ExtensionDetection) {
  EXPECT_TRUE(has_binary_trace_extension("corpus/a.pslt"));
  EXPECT_TRUE(has_binary_trace_extension("A.PSLT"));
  EXPECT_FALSE(has_binary_trace_extension("a.trace"));
  EXPECT_FALSE(has_binary_trace_extension("pslt"));
  EXPECT_FALSE(has_binary_trace_extension(""));
}

}  // namespace
}  // namespace psllc::trace
