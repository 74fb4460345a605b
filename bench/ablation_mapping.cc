// Ablation A5 — set-index mapping. The paper's related-work section claims
// the analysis "does not rely on certain type of address mapping". This
// bench runs the conflict-heavy workload under modulo and XOR-fold set
// mappings and shows the observed WCL stays within the (mapping-
// independent) analytical bound for both; average execution time differs
// because the mappings spread the working set differently.
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "core/system.h"
#include "core/wcl_analysis.h"
#include "sim/workload.h"

namespace {

using namespace psllc;        // NOLINT
using namespace psllc::core;  // NOLINT

constexpr char kTitle[] = "Ablation: set-index mapping independence";
constexpr char kReference[] =
    "Wu & Patel, DAC'22, Section 2 (mapping-agnostic analysis)";

struct Row {
  Cycle observed = 0;
  Cycle bound = 0;
  Cycle makespan = 0;
  bool ok = false;
};

Row run_one(const char* notation, llc::SetMapping mapping, std::int64_t range,
            int accesses) {
  ExperimentSetup setup = make_paper_setup(notation, 4);
  // Rebuild the partition map with the requested mapping.
  llc::PartitionMap remapped(setup.config.llc.geometry);
  for (int p = 0; p < setup.partitions().num_partitions(); ++p) {
    llc::PartitionSpec spec = setup.partitions().spec(p);
    spec.mapping = mapping;
    remapped.add_partition(spec, setup.partitions().sharers(p));
  }
  System system(setup.config, std::move(remapped));
  sim::RandomWorkloadOptions workload;
  workload.range_bytes = range;
  workload.accesses = accesses;
  workload.write_fraction = 0.25;
  const auto traces = sim::make_disjoint_random_workload(4, workload, 51);
  for (int c = 0; c < 4; ++c) {
    system.set_trace(CoreId{c}, traces[static_cast<std::size_t>(c)]);
  }
  Row row;
  const auto result = system.run(2'000'000'000);
  row.bound = analytical_wcl_cycles(setup, CoreId{0});
  row.observed = system.tracker().max_service_latency();
  row.makespan = result.all_done ? system.makespan() : 0;
  row.ok = result.all_done && row.observed <= row.bound;
  return row;
}

int run(bench::BenchContext& ctx) {
  bench::print_header(kTitle, kReference);
  const int accesses = ctx.pick(15000, 3000);

  results::BenchResult res(
      ctx.make_meta("ablation_mapping", kTitle, kReference));
  res.meta().set_param("seed", "51");
  res.meta().set_param("accesses_per_core", std::to_string(accesses));
  auto& series = res.add_series(
      "mapping_wcl",
      {{"config", results::ColumnType::kText, ""},
       {"mapping", results::ColumnType::kText, ""},
       {"range_bytes", results::ColumnType::kInt, "bytes"},
       {"observed_wcl", results::ColumnType::kInt, "cycles"},
       {"analytical_wcl", results::ColumnType::kInt, "cycles"},
       {"makespan", results::ColumnType::kInt, "cycles"}});
  bool all_ok = true;
  for (const char* notation : {"SS(2,4,4)", "NSS(2,4,4)", "SS(32,4,4)"}) {
    for (const auto mapping :
         {llc::SetMapping::kModulo, llc::SetMapping::kXorFold}) {
      for (const std::int64_t range : {4096, 32768}) {
        const Row row = run_one(notation, mapping, range, accesses);
        all_ok = all_ok && row.ok;
        series.add_row({results::Value::of_text(notation),
                        results::Value::of_text(to_string(mapping)),
                        results::Value::of_int(range),
                        results::Value::of_int(row.observed),
                        results::Value::of_int(row.bound),
                        results::Value::of_cycles(row.makespan,
                                                  row.makespan > 0)});
      }
    }
  }
  res.add_claim("bounds hold under both mappings", all_ok);
  return bench::finish_bench(ctx, res);
}

}  // namespace

PSLLC_REGISTER_BENCH(ablation_mapping, run)
