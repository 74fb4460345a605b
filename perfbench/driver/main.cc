// perfbench_driver — times one workload of the cell-replay benchmark and
// checks its outputs. Normally started by perfbench/run.py, which builds it:
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--expected FILE] [--work-dir DIR]
//                    [--spans-dir DIR] [--commit ID]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (from a traced run that alternates untraced and traced passes). The last
// line of stdout is one JSON object: correct, attempted, failed, metrics.
// Exit status: 0 = every check passed, 1 = a check failed (the result line
// is still printed), 2 = usage error or refused build.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "host_speed.h"
#include "results/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Worker budget of every pass: half of the 4-CPU benchmark host, where
/// wall time swung by a fifth at 4 workers.
constexpr int kWorkers = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string expected;
  std::string work_dir = ".bench_build/work";
  std::string spans_dir = ".bench_build/spans";
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench_driver: " << message << "\n"
            << "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 [--expected FILE] [--work-dir DIR] "
               "[--spans-dir DIR] [--commit ID]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value, &used);
        have_seed = used == value.size();
        if (!have_seed) {
          usage("bad --seed " + value);
        }
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value, &used);
        if (used != value.size() || !(args.seconds >= 0)) {
          usage("bad --seconds " + value);
        }
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        args.trace = value == "1";
      } else if (flag == "--expected") {
        args.expected = value;
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else if (flag == "--spans-dir") {
        args.spans_dir = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage("--workload must be one of sweep_dense, corpus_periodic, "
          "adversary_search");
  }
  if (!have_seed) {
    usage("--seed is required");
  }
  return args;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

constexpr bool kInstrumented = PERFBENCH_INSTRUMENTED != 0
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PSLLC_AUDIT_ENABLED)
                               || true
#endif
    ;

#ifdef NDEBUG
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

std::string provenance(const Args& args) {
  char host[256] = {};
  if (gethostname(host, sizeof host - 1) != 0) {
    std::snprintf(host, sizeof host, "unknown");
  }
  const char* cell_threads = std::getenv("PSLLC_CELL_THREADS");
  std::ostringstream out;
  out << "{\"host\":\"" << json_escape(host)
      << "\",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"compiler\":\"" << json_escape(PERFBENCH_COMPILER)
      << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"commit\":\""
      << json_escape(args.commit) << "\",\"workers\":" << kWorkers
      << ",\"instrumented\":" << (kInstrumented ? "true" : "false")
      << ",\"ndebug\":" << (kAssertsOff ? "true" : "false")
      << ",\"engine\":\"auto\",\"psllc_cell_threads\":\""
      << json_escape(cell_threads == nullptr ? "" : cell_threads)
      << "\",\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << "}";
  return out.str();
}

/// The committed digest for (workload, seed), or "" when none is recorded.
std::string expected_digest(const Args& args) {
  if (args.expected.empty()) {
    return "";
  }
  std::ifstream in(args.expected, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read expected digests " + args.expected);
  }
  std::ostringstream text;
  text << in.rdbuf();
  const psllc::results::Json doc = psllc::results::Json::parse(text.str());
  const psllc::results::Json* per_seed = doc.find(args.workload);
  if (per_seed == nullptr) {
    return "";
  }
  const psllc::results::Json* digest =
      per_seed->find(std::to_string(args.seed));
  return digest == nullptr ? "" : digest->as_string();
}

struct Timed {
  Pass pass;
  double wall_s = 0;
  double cpu_s = 0;
  double reference_s = 0;  ///< host-speed reference around the pass
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Per-span-name totals: duration and work.
struct SpanTotals {
  double ns = 0;
  double work = 0;
  std::vector<double> durations_ms;
};

std::map<std::string, SpanTotals> totals_by_name(const Tracer& tracer) {
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : tracer.spans()) {
    SpanTotals& t = totals[s.name];
    t.ns += static_cast<double>(s.duration_ns());
    t.work += static_cast<double>(s.work);
    t.durations_ms.push_back(static_cast<double>(s.duration_ns()) * 1e-6);
  }
  return totals;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> layer_metrics(const Tracer& tracer,
                                  const std::vector<Timed>& traced,
                                  const std::vector<Timed>& untraced) {
  std::map<std::string, SpanTotals> t = totals_by_name(tracer);
  const Pass& last = traced.back().pass;
  const LayerCounts n = count_layers(last);
  std::vector<double> busy;
  std::vector<double> traced_wall;
  std::vector<double> untraced_wall;
  for (const Timed& p : traced) {
    busy.push_back(ratio(p.pass.busy_seconds,
                         p.pass.batch_wall_seconds * kWorkers));
    traced_wall.push_back(p.wall_s);
  }
  for (const Timed& p : untraced) {
    untraced_wall.push_back(p.wall_s);
  }
  const std::vector<double>& cell_ms = t["sim.replay"].durations_ms;
  const double kernel_cells = static_cast<double>(
      std::count(last.used_kernel.begin(), last.used_kernel.end(), 1));
  const double accesses =
      static_cast<double>(n.l1_hits + n.l2_hits + n.misses);
  const auto per = [&](const char* name, double scale) {
    return ratio(t[name].ns, t[name].work) * scale;
  };
  return {
      {"sim.replay.ns_per_op", per("sim.replay", 1), "ns"},
      {"sim.replay.cell_ms_p50", median(cell_ms), "ms"},
      {"sim.replay.cell_ms_max",
       cell_ms.empty() ? 0 : *std::max_element(cell_ms.begin(), cell_ms.end()),
       "ms"},
      {"sim.replay.cells", static_cast<double>(cell_ms.size()), "count"},
      {"sim.replay.kernel_frac",
       ratio(kernel_cells, static_cast<double>(last.cells.size())), "ratio"},
      {"sim.batch.busy_frac", median(busy), "ratio"},
      {"trace.gen_ns_per_op", per("trace.gen", 1), "ns"},
      {"trace.load_ns_per_op", per("trace.load", 1), "ns"},
      {"trace.decode_ns_per_op", per("trace.decode", 1), "ns"},
      {"core.setup_us", per("core.setup", 1e-3), "us"},
      {"core.bound_us", per("core.bound", 1e-3), "us"},
      {"mem.private.ns_per_access", per("mem.private", 1), "ns"},
      {"mem.l1_hit_frac", ratio(static_cast<double>(n.l1_hits), accesses),
       "ratio"},
      {"mem.l2_hit_frac", ratio(static_cast<double>(n.l2_hits), accesses),
       "ratio"},
      {"mem.miss_frac", ratio(static_cast<double>(n.misses), accesses),
       "ratio"},
      {"mem.backend.reads", static_cast<double>(n.backend_reads), "count"},
      {"mem.backend.writes", static_cast<double>(n.backend_writes), "count"},
      {"mem.backend.write_stalls", static_cast<double>(n.write_stalls),
       "count"},
      {"mem.backend.max_queue_depth", static_cast<double>(n.max_queue_depth),
       "count"},
      {"bus.slots", static_cast<double>(n.slots), "count"},
      {"bus.busy_slot_frac",
       ratio(static_cast<double>(n.presentations + n.writebacks),
             static_cast<double>(n.slots)),
       "ratio"},
      {"llc.requests", static_cast<double>(n.llc_requests), "count"},
      {"llc.blocked_frac",
       ratio(static_cast<double>(n.blocked),
             static_cast<double>(n.presentations)),
       "ratio"},
      {"llc.evictions", static_cast<double>(n.evictions), "count"},
      {"llc.freeing_writebacks", static_cast<double>(n.freeing_writebacks),
       "count"},
      {"llc.voluntary_writebacks", static_cast<double>(n.voluntary_writebacks),
       "count"},
      {"llc.steals", static_cast<double>(n.steals), "count"},
      {"llc.repartitions", static_cast<double>(n.repartitions), "count"},
      {"llc.drain_writebacks", static_cast<double>(n.drain_writebacks),
       "count"},
      {"trace_overhead_frac",
       ratio(median(traced_wall), median(untraced_wall)) - 1, "ratio"},
  };
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int run(const Args& args) {
  std::cout << "provenance: " << provenance(args) << "\n";
  if (kInstrumented || !kAssertsOff ||
      std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench_driver: refusing to time a "
              << PERFBENCH_BUILD_TYPE
              << (kInstrumented ? " instrumented" : "")
              << " build; rebuild as plain Release\n";
    return 2;
  }
  const std::string expected = expected_digest(args);
  std::filesystem::create_directories(args.work_dir);
  pin_to_cpus(kWorkers);

  Tracer tracer;
  Tracer* spans = args.trace ? &tracer : nullptr;
  WorkloadOptions options;
  options.seed = args.seed;
  options.work_dir = args.work_dir;
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, options);

  // Set-up is repeated and reported as a median so work moved into it
  // shows against a steady figure; each repetition is scaled by a
  // host-speed reference taken just before it.
  std::vector<double> setup_s;
  const std::int64_t setup_start = now_ns();
  while (setup_s.size() < 20 ||
         (now_ns() - setup_start < 500'000'000 && setup_s.size() < 100)) {
    const double reference = reference_seconds(1);
    const std::int64_t t0 = now_ns();
    workload->setup(spans);
    setup_s.push_back(at_nominal_speed(
        static_cast<double>(now_ns() - t0) * 1e-9, reference));
  }
  const double ops = static_cast<double>(workload->ops_per_pass());
  std::cout << "set-up repetitions " << setup_s.size() << ", min "
            << number(*std::min_element(setup_s.begin(), setup_s.end()))
            << " s, max "
            << number(*std::max_element(setup_s.begin(), setup_s.end()))
            << " s\n";

  // One untimed warm-up pass: first-touch allocation and code warm-up are
  // paid once per process, not per grid.
  Pass warmup = workload->run(kWorkers);

  // Timed section: whole passes until --seconds have elapsed, each between
  // two host-speed references. The traced run alternates untraced and
  // traced passes so both see the same host.
  std::vector<Timed> untraced;
  std::vector<Timed> traced;
  double reference = reference_seconds(kWorkers);
  const auto timed_pass = [&](auto&& run) {
    Timed t;
    const double cpu0 = process_cpu_seconds();
    const std::int64_t wall0 = now_ns();
    t.pass = run();
    t.wall_s = static_cast<double>(now_ns() - wall0) * 1e-9;
    t.cpu_s = process_cpu_seconds() - cpu0;
    const double after = reference_seconds(kWorkers);
    t.reference_s = 0.5 * (reference + after);
    reference = after;
    return t;
  };
  const std::int64_t start = now_ns();
  const auto elapsed = [&] {
    return static_cast<double>(now_ns() - start) * 1e-9;
  };
  const std::size_t min_passes = args.trace ? 2 : 3;
  while (elapsed() < args.seconds || untraced.size() < min_passes ||
         (args.trace && traced.size() < min_passes)) {
    untraced.push_back(
        timed_pass([&] { return workload->run(kWorkers); }));
    if (args.trace) {
      traced.push_back(timed_pass(
          [&] { return workload->run_traced(kWorkers, tracer); }));
    }
  }

  // Checks: every pass reproduces the first one's digest — traced and
  // untraced alike, and again at a worker budget of 1 in the traced run —
  // and the committed digest when one is recorded for this seed.
  std::vector<const Pass*> passes{&warmup};
  for (const Timed& t : untraced) {
    passes.push_back(&t.pass);
  }
  for (const Timed& t : traced) {
    passes.push_back(&t.pass);
  }
  Pass serial;
  if (args.trace) {
    serial = workload->run(1);
    passes.push_back(&serial);
    workload->probe(tracer);
  }
  const std::uint64_t first = digest(passes.front()->cells);
  bool digests_agree = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const Pass* pass : passes) {
    digests_agree = digests_agree && digest(pass->cells) == first;
    attempted += static_cast<std::int64_t>(pass->cells.size());
    failed += std::count_if(pass->cells.begin(), pass->cells.end(),
                            [](const auto& m) { return !cell_ok(m); });
  }
  const bool digest_ok =
      digests_agree && (expected.empty() || expected == hex(first));
  if (!digest_ok) {
    failed = attempted;  // a digest cannot be pinned on a single cell
  }
  if (tracer.dropped() != 0) {
    std::cerr << "perfbench_driver: " << tracer.dropped()
              << " spans dropped\n";
    failed = std::max<std::int64_t>(failed, 1);
  }
  const bool correct = failed == 0;

  std::cout << "workload " << args.workload << " seed " << args.seed
            << ": cells/pass " << passes.front()->cells.size() << ", ops/pass "
            << static_cast<std::int64_t>(ops) << ", untraced passes "
            << untraced.size() << ", traced passes " << traced.size() << "\n"
            << "digest " << hex(first) << " (expected "
            << (expected.empty() ? "none recorded" : expected) << ", passes "
            << (digests_agree ? "agree" : "DIFFER") << ")\n";

  std::vector<double> mops;
  std::vector<double> cpu;
  std::vector<double> raw_mops;
  std::cout << "untraced passes (wall s / cpu s / reference s):";
  for (const Timed& t : untraced) {
    mops.push_back(ops / at_nominal_speed(t.wall_s, t.reference_s) * 1e-6);
    cpu.push_back(at_nominal_speed(t.cpu_s, t.reference_s));
    raw_mops.push_back(ops / t.wall_s * 1e-6);
    std::printf(" %.3f/%.3f/%.4f", t.wall_s, t.cpu_s, t.reference_s);
  }
  std::cout << "\n  unscaled replay_mops " << number(median(raw_mops))
            << " Mop/s\n";
  const std::vector<Metric> end_to_end = {
      {"replay_mops", median(mops), "Mop/s"},
      {"cpu_s", median(cpu), "s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  for (const Metric& m : end_to_end) {
    std::cout << "  " << m.name << " " << number(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << "  failed_frac "
            << number(static_cast<double>(failed) /
                      static_cast<double>(attempted))
            << " ratio (" << failed << "/" << attempted << " cells)\n";

  if (!args.trace) {
    print_result(correct, attempted, failed, end_to_end);
    return correct ? 0 : 1;
  }
  const std::vector<Metric> layers =
      layer_metrics(tracer, traced, untraced);
  for (const Metric& m : layers) {
    std::cout << "  " << m.name << " " << number(m.value) << " " << m.unit
              << "\n";
  }
  std::filesystem::create_directories(args.spans_dir);
  const std::string trace_path = (std::filesystem::path(args.spans_dir) /
                                  (args.workload + "-seed" +
                                   std::to_string(args.seed) + ".spans.jsonl"))
                                     .string();
  tracer.write_jsonl(trace_path, provenance(args));
  std::cout << "spans written to " << trace_path << "\n";
  print_result(correct, attempted, failed, layers);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    std::cout << "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
                 "\"metrics\": {}}"
              << std::endl;
    return 1;
  }
}
