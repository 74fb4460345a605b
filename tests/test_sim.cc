// Tests for the sim substrate: workload generators, trace I/O, runner and
// sweep harness.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "common/assert.h"
#include "common/rng.h"
#include "sim/experiment.h"
#include "sim/replay.h"
#include "sim/runner.h"
#include "sim/trace_io.h"
#include "sim/workload.h"

namespace psllc::sim {
namespace {

// --- workload generators -----------------------------------------------------

TEST(Workload, UniformRandomStaysInRangeAndAligned) {
  RandomWorkloadOptions options;
  options.range_bytes = 4096;
  options.accesses = 2000;
  const auto trace = make_uniform_random_trace(0x1000, options, 7);
  ASSERT_EQ(trace.size(), 2000u);
  for (const auto& op : trace) {
    EXPECT_GE(op.addr, 0x1000u);
    EXPECT_LT(op.addr, 0x1000u + 4096u);
    EXPECT_EQ(op.addr % 64, 0u) << "line alignment";
  }
}

TEST(Workload, DeterministicPerSeed) {
  RandomWorkloadOptions options;
  const auto a = make_uniform_random_trace(0, options, 42);
  const auto b = make_uniform_random_trace(0, options, 42);
  const auto c = make_uniform_random_trace(0, options, 43);
  ASSERT_EQ(a.size(), b.size());
  bool all_equal = true;
  bool differs_from_c = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    all_equal = all_equal && a[i].addr == b[i].addr && a[i].type == b[i].type;
    differs_from_c = differs_from_c || a[i].addr != c[i].addr;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(differs_from_c);
}

TEST(Workload, WriteFractionRoughlyHonored) {
  RandomWorkloadOptions options;
  options.accesses = 10000;
  options.write_fraction = 0.3;
  const auto trace = make_uniform_random_trace(0, options, 3);
  int writes = 0;
  for (const auto& op : trace) {
    writes += is_write(op.type) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(writes) / 10000.0, 0.3, 0.03);
}

TEST(Workload, DisjointRangesNeverAlias) {
  RandomWorkloadOptions options;
  options.range_bytes = 262144;
  options.accesses = 500;
  const auto traces = make_disjoint_random_workload(4, options, 11);
  ASSERT_EQ(traces.size(), 4u);
  for (int c = 0; c < 4; ++c) {
    for (const auto& op : traces[static_cast<std::size_t>(c)]) {
      // Core i draws from the contiguous range [i*range, (i+1)*range).
      EXPECT_EQ(op.addr / static_cast<Addr>(options.range_bytes),
                static_cast<Addr>(c));
    }
  }
}

TEST(Workload, TracesIndependentOfConfiguration) {
  // The paper: "a core issues the same memory addresses across different
  // partitioned configurations" — the generator takes no config input, so
  // two calls with equal (seed, core, range) agree.
  RandomWorkloadOptions options;
  options.range_bytes = 8192;
  options.accesses = 100;
  const auto a = make_disjoint_random_workload(2, options, 5);
  const auto b = make_disjoint_random_workload(4, options, 5);
  for (std::size_t i = 0; i < a[0].size(); ++i) {
    EXPECT_EQ(a[0][i].addr, b[0][i].addr);
    EXPECT_EQ(a[1][i].addr, b[1][i].addr);
  }
}

TEST(Workload, StridedTrace) {
  const auto trace = make_strided_trace(0x100, 64, 4, 2);
  ASSERT_EQ(trace.size(), 8u);
  EXPECT_EQ(trace[0].addr, 0x100u);
  EXPECT_EQ(trace[3].addr, 0x100u + 3 * 64u);
  EXPECT_EQ(trace[4].addr, 0x100u);  // second repetition
}

TEST(Workload, PointerChaseVisitsAllNodes) {
  const auto trace = make_pointer_chase_trace(0, 16, 16, 9);
  ASSERT_EQ(trace.size(), 16u);
  std::set<Addr> visited;
  for (const auto& op : trace) {
    visited.insert(op.addr);
  }
  // Sattolo permutation is a single cycle: 16 steps visit all 16 nodes.
  EXPECT_EQ(visited.size(), 16u);
}

TEST(Workload, RejectsBadOptions) {
  RandomWorkloadOptions options;
  options.range_bytes = 32;  // < one line
  EXPECT_THROW(make_uniform_random_trace(0, options, 1), ConfigError);
  options = RandomWorkloadOptions{};
  options.write_fraction = 1.5;
  EXPECT_THROW(make_uniform_random_trace(0, options, 1), ConfigError);
  EXPECT_THROW(make_pointer_chase_trace(0, 1, 5, 1), ConfigError);
}

// --- trace I/O ------------------------------------------------------------------

TEST(TraceIo, RoundTrip) {
  core::Trace trace{
      core::MemOp{0x1000, AccessType::kRead, 0},
      core::MemOp{0x2040, AccessType::kWrite, 12},
      core::MemOp{0x3000, AccessType::kIfetch, 0},
  };
  std::ostringstream out;
  write_trace(out, trace);
  std::istringstream in(out.str());
  const core::Trace parsed = read_trace(in);
  ASSERT_EQ(parsed.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(parsed[i].addr, trace[i].addr);
    EXPECT_EQ(parsed[i].type, trace[i].type);
    EXPECT_EQ(parsed[i].gap, trace[i].gap);
  }
}

TEST(TraceIo, ParsesCommentsAndDecimal) {
  std::istringstream in(
      "# a comment\n"
      "\n"
      "R 4096\n"
      "w 0x80 5  # store with gap\n");
  const core::Trace trace = read_trace(in);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].addr, 4096u);
  EXPECT_EQ(trace[1].type, AccessType::kWrite);
  EXPECT_EQ(trace[1].gap, 5);
}

TEST(TraceIo, RejectsMalformedLines) {
  std::istringstream bad_op("X 0x100\n");
  EXPECT_THROW(read_trace(bad_op), ConfigError);
  std::istringstream bad_addr("R zz\n");
  EXPECT_THROW(read_trace(bad_addr), ConfigError);
  std::istringstream bad_gap("R 0x100 -4\n");
  EXPECT_THROW(read_trace(bad_gap), ConfigError);
  std::istringstream trailing("R 0x100 4 junk\n");
  EXPECT_THROW(read_trace(trailing), ConfigError);
}

TEST(TraceIo, RandomizedRoundTripProperty) {
  // write_trace -> read_trace must be the identity for every trace the
  // text grammar can express: any address (including max-u64), any
  // non-negative gap, all three access types.
  for (const std::uint64_t seed : {3ull, 17ull, 4242ull}) {
    Rng rng(seed);
    core::Trace trace;
    const int ops = 200 + static_cast<int>(rng.next_below(200));
    for (int i = 0; i < ops; ++i) {
      core::MemOp op;
      op.addr = rng.next_bool(0.1)
                    ? std::numeric_limits<Addr>::max() - rng.next_below(4)
                    : rng.next_u64();
      const auto type = rng.next_below(3);
      op.type = type == 0   ? AccessType::kRead
                : type == 1 ? AccessType::kWrite
                            : AccessType::kIfetch;
      op.gap = rng.next_bool(0.5) ? 0 : rng.next_in_range(0, 1 << 20);
      trace.push_back(op);
    }
    std::ostringstream out;
    write_trace(out, trace);
    std::istringstream in(out.str());
    const core::Trace parsed = read_trace(in);
    ASSERT_EQ(parsed.size(), trace.size()) << "seed " << seed;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(parsed[i].addr, trace[i].addr) << "seed " << seed;
      EXPECT_EQ(parsed[i].type, trace[i].type) << "seed " << seed;
      EXPECT_EQ(parsed[i].gap, trace[i].gap) << "seed " << seed;
    }
  }
}

TEST(TraceIo, WriteRejectsUnrepresentableGap) {
  // The text grammar has no negative gaps; the writer must refuse instead
  // of emitting a line the parser will reject — and refuse BEFORE writing
  // anything, since a partial text file would read back as a silently
  // shorter trace (no op-count header to catch the truncation).
  const core::Trace trace{core::MemOp{0x40, AccessType::kRead, 7},
                          core::MemOp{0x100, AccessType::kRead, -5}};
  std::ostringstream out;
  EXPECT_THROW(write_trace(out, trace), ConfigError);
  EXPECT_TRUE(out.str().empty());

  // The file writer must also validate before opening: truncating an
  // existing file for a trace that cannot be written would lose data.
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "psllc_trace_noclobber";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "keep.trace").string();
  const core::Trace good{core::MemOp{0x40, AccessType::kRead, 1}};
  write_trace_file(path, good);
  EXPECT_THROW(write_trace_file(path, trace), ConfigError);
  EXPECT_EQ(read_trace_file(path).size(), good.size());
}

TEST(TraceIo, ParsesCrlfAndMidLineComments) {
  std::istringstream in(
      "R 0x40 3\r\n"
      "W 0x80 # tail comment after the address\r\n"
      "\r\n"
      "i 0xC0 7 # comment after the gap\r\n");
  const core::Trace trace = read_trace(in);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].gap, 3);
  EXPECT_EQ(trace[1].type, AccessType::kWrite);
  EXPECT_EQ(trace[1].gap, 0);
  EXPECT_EQ(trace[2].type, AccessType::kIfetch);
  EXPECT_EQ(trace[2].gap, 7);
}

TEST(TraceIo, ParsesMaxAddressAndRejectsOverflow) {
  std::istringstream max_hex("R 0xFFFFFFFFFFFFFFFF\n");
  EXPECT_EQ(read_trace(max_hex).front().addr,
            std::numeric_limits<Addr>::max());
  std::istringstream max_dec("R 18446744073709551615\n");
  EXPECT_EQ(read_trace(max_dec).front().addr,
            std::numeric_limits<Addr>::max());
  // One bit past 64: must be a parse error, not a silent wrap.
  std::istringstream overflow_hex("R 0x1FFFFFFFFFFFFFFFF\n");
  EXPECT_THROW((void)read_trace(overflow_hex), ConfigError);
  std::istringstream overflow_dec("R 18446744073709551616\n");
  EXPECT_THROW((void)read_trace(overflow_dec), ConfigError);
}

TEST(TraceIo, EmptyInputsYieldEmptyTraces) {
  std::istringstream empty("");
  EXPECT_TRUE(read_trace(empty).empty());
  std::istringstream comments_only("# header only\n\n   \n# more\n");
  EXPECT_TRUE(read_trace(comments_only).empty());
}

TEST(TraceIo, FileDispatchByExtension) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "psllc_trace_dispatch";
  std::filesystem::create_directories(dir);
  const core::Trace trace{
      core::MemOp{0x1000, AccessType::kRead, 0},
      core::MemOp{0x2040, AccessType::kWrite, 12},
  };
  const std::string text_path = (dir / "t.trace").string();
  const std::string binary_path = (dir / "t.pslt").string();
  write_trace_file(text_path, trace);
  write_trace_file(binary_path, trace);
  // The text file starts with a printable op letter, the binary one with
  // the PSLT magic.
  std::ifstream binary_in(binary_path, std::ios::binary);
  char magic[4] = {};
  binary_in.read(magic, 4);
  EXPECT_EQ(std::string(magic, 4), "PSLT");
  for (const std::string& path : {text_path, binary_path}) {
    const core::Trace loaded = read_trace_file(path);
    ASSERT_EQ(loaded.size(), trace.size()) << path;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(loaded[i].addr, trace[i].addr) << path;
      EXPECT_EQ(loaded[i].type, trace[i].type) << path;
      EXPECT_EQ(loaded[i].gap, trace[i].gap) << path;
    }
  }
}

// --- runner / sweep -----------------------------------------------------------------

TEST(Runner, CompletesAndReportsMetrics) {
  const auto setup = core::make_paper_setup("SS(4,4,2)", 2);
  RandomWorkloadOptions options;
  options.range_bytes = 2048;
  options.accesses = 200;
  const auto traces = make_disjoint_random_workload(2, options, 3);
  const RunMetrics metrics = run_experiment(setup, traces);
  EXPECT_TRUE(metrics.completed);
  EXPECT_GT(metrics.makespan, 0);
  EXPECT_GT(metrics.llc_requests, 0);
  EXPECT_LE(metrics.observed_wcl, metrics.analytical_wcl);
  EXPECT_EQ(metrics.per_core_finish.size(), 2u);
  EXPECT_GT(metrics.dram_reads, 0);
}

TEST(Runner, HorizonAbortsReportIncomplete) {
  const auto setup = core::make_paper_setup("SS(1,2,2)", 2);
  RandomWorkloadOptions options;
  options.range_bytes = 65536;
  options.accesses = 5000;
  const auto traces = make_disjoint_random_workload(2, options, 3);
  RunOptions run_options;
  run_options.max_cycles = 1000;  // far too little
  const RunMetrics metrics = run_experiment(setup, traces, run_options);
  EXPECT_FALSE(metrics.completed);
}

TEST(Sweep, GridShapeAndIdenticalTracesAcrossConfigs) {
  SweepOptions options;
  options.address_ranges = {1024, 4096};
  options.accesses_per_core = 300;
  const std::vector<SweepConfig> configs = {{"SS(4,4,2)", 2},
                                            {"NSS(4,4,2)", 2}};
  const SweepResult result = run_sweep(configs, options);
  EXPECT_EQ(result.cells.size(), 4u);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      const auto& cell = result.cell(r, c);
      EXPECT_TRUE(cell.metrics.completed);
      EXPECT_GT(cell.metrics.llc_requests, 0);
    }
  }
  const Table wcl = wcl_table(result);
  EXPECT_EQ(wcl.num_rows(), 3);  // 2 ranges + analytical row
  const Table exec = exec_time_table(result);
  EXPECT_EQ(exec.num_rows(), 2);
  EXPECT_GT(mean_speedup(result, "SS(4,4,2)", "NSS(4,4,2)"), 0.0);
  EXPECT_THROW((void)mean_speedup(result, "nope", "NSS(4,4,2)"), ConfigError);
}

TEST(Sweep, ParallelMatchesSerialBitIdentical) {
  // The worker-pool sweep must reproduce the serial path exactly: same seed
  // => same metrics in every cell and byte-identical rendered tables.
  SweepOptions serial_options;
  serial_options.address_ranges = {1024, 2048, 4096};
  serial_options.accesses_per_core = 400;
  serial_options.seed = 99;
  serial_options.threads = 1;
  SweepOptions parallel_options = serial_options;
  parallel_options.threads = 4;
  const std::vector<SweepConfig> configs = {
      {"SS(4,4,2)", 2}, {"NSS(4,4,2)", 2}, {"P(2,4)", 2}};

  const SweepResult serial = run_sweep(configs, serial_options);
  const SweepResult parallel = run_sweep(configs, parallel_options);

  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    const SweepCell& a = serial.cells[i];
    const SweepCell& b = parallel.cells[i];
    EXPECT_EQ(a.config.notation, b.config.notation) << "cell " << i;
    EXPECT_EQ(a.range_bytes, b.range_bytes) << "cell " << i;
    EXPECT_EQ(a.metrics.completed, b.metrics.completed) << "cell " << i;
    EXPECT_EQ(a.metrics.end_cycle, b.metrics.end_cycle) << "cell " << i;
    EXPECT_EQ(a.metrics.makespan, b.metrics.makespan) << "cell " << i;
    EXPECT_EQ(a.metrics.observed_wcl, b.metrics.observed_wcl) << "cell " << i;
    EXPECT_EQ(a.metrics.analytical_wcl, b.metrics.analytical_wcl)
        << "cell " << i;
    EXPECT_EQ(a.metrics.llc_requests, b.metrics.llc_requests) << "cell " << i;
    EXPECT_EQ(a.metrics.per_core_finish, b.metrics.per_core_finish)
        << "cell " << i;
    EXPECT_EQ(a.metrics.dram_reads, b.metrics.dram_reads) << "cell " << i;
    EXPECT_EQ(a.metrics.dram_writes, b.metrics.dram_writes) << "cell " << i;
  }
  EXPECT_EQ(wcl_table(serial).to_csv(), wcl_table(parallel).to_csv());
  EXPECT_EQ(exec_time_table(serial).to_csv(),
            exec_time_table(parallel).to_csv());
}

TEST(Sweep, LentRangeTracesMatchFreshPerCellReplays) {
  // run_sweep generates each range's traces once per active-core count and
  // lends them to every configuration of the range. Each cell must equal a
  // replay of that cell alone on freshly generated traces, serially and on
  // a pool; the grid mixes active-core counts within each range.
  const std::vector<SweepConfig> configs = {
      {"P(32,4)", 4}, {"P(32,8)", 2}, {"SS(32,16,4)", 4}};
  SweepOptions options;
  options.address_ranges = {4096, 16384, 65536};
  options.accesses_per_core = 1500;
  options.seed = 2024;
  std::vector<RunMetrics> reference;
  for (const std::int64_t range : options.address_ranges) {
    for (const SweepConfig& config : configs) {
      RandomWorkloadOptions workload;
      workload.range_bytes = range;
      workload.accesses = options.accesses_per_core;
      workload.write_fraction = options.write_fraction;
      const std::vector<core::Trace> traces = make_disjoint_random_workload(
          config.active_cores, workload, options.seed);
      core::ExperimentSetup setup =
          core::make_paper_setup(config.notation, config.active_cores);
      setup.config.dram = options.dram;
      ReplayRequest request;
      request.setup = &setup;
      request.workload.per_core = &traces;
      request.options.max_cycles = options.max_cycles;
      reference.push_back(replay(request).metrics);
    }
  }
  for (const int threads : {1, 4}) {
    options.threads = threads;
    const SweepResult result = run_sweep(configs, options);
    ASSERT_EQ(result.cells.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_TRUE(result.cells[i].metrics.completed)
          << "threads " << threads << " cell " << i;
      EXPECT_TRUE(result.cells[i].metrics == reference[i])
          << "threads " << threads << " cell " << i << " "
          << result.cells[i].config.notation << " range "
          << result.cells[i].range_bytes;
    }
  }
}

TEST(Sweep, DefaultThreadCountMatchesSerial) {
  // threads = 0 (auto) must also be deterministic.
  SweepOptions options;
  options.address_ranges = {1024, 4096};
  options.accesses_per_core = 200;
  options.seed = 7;
  const std::vector<SweepConfig> configs = {{"SS(4,4,2)", 2}, {"P(2,4)", 2}};
  SweepOptions serial = options;
  serial.threads = 1;
  const SweepResult a = run_sweep(configs, options);
  const SweepResult b = run_sweep(configs, serial);
  EXPECT_EQ(wcl_table(a).to_csv(), wcl_table(b).to_csv());
  EXPECT_EQ(exec_time_table(a).to_csv(), exec_time_table(b).to_csv());
}

TEST(Sweep, RejectsNegativeThreads) {
  SweepOptions options;
  options.threads = -1;
  const std::vector<SweepConfig> configs = {{"SS(4,4,2)", 2}};
  EXPECT_THROW((void)run_sweep(configs, options), ConfigError);
}

TEST(Sweep, ParallelPropagatesCellErrors) {
  // An invalid notation makes a cell throw; the pool must surface it, with
  // the same message serially and in parallel.
  const std::vector<SweepConfig> configs = {{"SS(4,4,2)", 2},
                                            {"bogus-notation", 2}};
  const auto error_at = [&](int threads) {
    SweepOptions options;
    options.address_ranges = {1024, 2048};
    options.accesses_per_core = 100;
    options.threads = threads;
    try {
      (void)run_sweep(configs, options);
    } catch (const ConfigError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string serial = error_at(1);
  EXPECT_NE(serial, "no error");
  EXPECT_EQ(error_at(4), serial);
}

}  // namespace
}  // namespace psllc::sim
