// Trace replay — run recorded memory traces (one file per core) through a
// chosen partition configuration and print per-core latency histograms.
//
//   $ ./trace_replay "SS(32,4,2)" core0.trace core1.trace
//   $ ./trace_replay          # self-demo with generated traces
//
// Trace format (see src/sim/trace_io.h):  R|W|I <addr> [gap]
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/system.h"
#include "core/wcl_analysis.h"
#include "sim/trace_io.h"
#include "sim/workload.h"

namespace {

using namespace psllc;  // NOLINT

int replay(const std::string& notation,
           const std::vector<core::Trace>& traces) {
  const int cores = static_cast<int>(traces.size());
  core::ExperimentSetup setup = core::make_paper_setup(notation, cores);
  setup.config.keep_request_records = true;
  core::System system(setup);
  for (int c = 0; c < cores; ++c) {
    system.set_trace(CoreId{c}, traces[static_cast<std::size_t>(c)]);
  }
  const core::RunResult result = system.run(2'000'000'000);
  if (!result.all_done) {
    std::printf("replay did not complete\n");
    return 1;
  }
  // Service-latency histogram per core, sized by the analytical bound.
  const Cycle bound = core::analytical_wcl_cycles(setup, CoreId{0});
  std::vector<Histogram> histograms(static_cast<std::size_t>(cores),
                                    Histogram(bound + 1, 20));
  for (const core::RequestRecord& record : system.tracker().records()) {
    histograms[static_cast<std::size_t>(record.core.value)].add(
        record.service_latency());
  }
  std::printf("config %s | %d cores | executed %lld slots | makespan %lld "
              "cycles\n\n",
              notation.c_str(), cores,
              static_cast<long long>(result.slots_executed),
              static_cast<long long>(system.makespan()));
  for (int c = 0; c < cores; ++c) {
    const auto& summary = system.tracker().service_latency(CoreId{c});
    std::printf("c%d: %lld LLC requests", c,
                static_cast<long long>(summary.count()));
    if (summary.count() > 0) {
      std::printf(", service latency min/mean/max = %lld / %.1f / %lld "
                  "cycles (bound %lld)",
                  static_cast<long long>(summary.min()), summary.mean(),
                  static_cast<long long>(summary.max()),
                  static_cast<long long>(bound));
    }
    std::printf("\n");
    if (summary.count() > 0) {
      std::printf("%s",
                  histograms[static_cast<std::size_t>(c)].to_ascii().c_str());
    }
  }
  const auto& worst = system.tracker().worst_request();
  std::printf("\nworst request: %s line 0x%llx, service %lld cycles, %d "
              "presentations, %d own write-backs in flight\n",
              to_string(worst.core).c_str(),
              static_cast<unsigned long long>(worst.line),
              static_cast<long long>(worst.service_latency()),
              worst.presentations, worst.writebacks_during);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 3) {
      const std::string notation = argv[1];
      std::vector<core::Trace> traces;
      for (int i = 2; i < argc; ++i) {
        traces.push_back(sim::read_trace_file(argv[i]));
      }
      return replay(notation, traces);
    }
    // Self-demo: generate two traces, write them through the text format
    // (round trip exercises trace_io), then replay.
    std::printf("no trace files given — running the self-demo\n\n");
    sim::RandomWorkloadOptions options;
    options.range_bytes = 8192;
    options.accesses = 5000;
    options.write_fraction = 0.2;
    const auto generated = sim::make_disjoint_random_workload(2, options, 77);
    const auto dir = std::filesystem::temp_directory_path();
    std::vector<core::Trace> traces;
    for (std::size_t c = 0; c < generated.size(); ++c) {
      const std::string path =
          (dir / ("psllc_demo_core" + std::to_string(c) + ".trace")).string();
      sim::write_trace_file(path, generated[c]);
      traces.push_back(sim::read_trace_file(path));
      std::printf("wrote + reloaded %s (%zu entries)\n", path.c_str(),
                  traces.back().size());
    }
    std::printf("\n");
    return replay("SS(32,4,2)", traces);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
