// Experiment E6 — Section 4.1 / Figure 2: with a shared partition,
// best-effort contention, and a TDM schedule granting the interfering core
// two slots per period, the core under analysis is starved forever. The
// same trace under (a) a 1S-TDM schedule or (b) the set sequencer completes
// within its analytical bound.
#include <string>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "core/critical_instance.h"
#include "core/wcl_analysis.h"

namespace {

using namespace psllc;        // NOLINT
using namespace psllc::core;  // NOLINT

constexpr char kTitle[] =
    "Unbounded WCL scenario (shared partition, multi-slot TDM)";
constexpr char kReference[] = "Wu & Patel, DAC'22, Section 4.1, Figure 2";

struct Variant {
  const char* name = nullptr;
  llc::ContentionMode mode = llc::ContentionMode::kSetSequencer;
  bool one_slot = true;
};

int run(bench::BenchContext& ctx) {
  bench::print_header(kTitle, kReference);

  const Variant variants[] = {
      {"NSS + {cua,ci,ci}", llc::ContentionMode::kBestEffort, false},
      {"NSS + 1S-TDM", llc::ContentionMode::kBestEffort, true},
      {"SS  + {cua,ci,ci}", llc::ContentionMode::kSetSequencer, false},
  };
  results::BenchResult res(
      ctx.make_meta("unbounded_wcl", kTitle, kReference));
  auto& series = res.add_series(
      "starvation",
      {{"variant", results::ColumnType::kText, ""},
       {"slots_simulated", results::ColumnType::kInt, ""},
       {"cua_completed", results::ColumnType::kText, ""},
       {"cua_wait", results::ColumnType::kInt, "cycles"},
       {"interferer_ops", results::ColumnType::kInt, ""}});
  bool starved_as_expected = false;
  bool bounded_as_expected = true;
  for (const Variant& variant : variants) {
    for (std::int64_t horizon : {1000, 4000, 16000}) {
      auto scenario =
          make_unbounded_scenario(variant.mode, variant.one_slot, 1 << 20);
      scenario.system->run_slots(horizon);
      const bool completed =
          scenario.system->tracker().service_latency(scenario.cua).count() >
          0;
      const Cycle wait =
          completed
              ? scenario.system->tracker().service_latency(scenario.cua).max()
              : scenario.system->now();
      series.add_row(
          {results::Value::of_text(variant.name),
           results::Value::of_int(horizon),
           results::Value::of_text(completed ? "yes" : "NO (still starving)"),
           results::Value::of_int(static_cast<std::int64_t>(wait)),
           results::Value::of_int(static_cast<std::int64_t>(
               scenario.system->ops_completed(scenario.interferer)))});
      if (!variant.one_slot &&
          variant.mode == llc::ContentionMode::kBestEffort) {
        starved_as_expected = !completed;  // at every horizon
      } else {
        bounded_as_expected = bounded_as_expected && completed;
      }
    }
  }
  res.add_claim("cua starves under NSS + multi-slot TDM at every horizon",
                starved_as_expected);
  res.add_claim("1S-TDM and the set sequencer both bound the wait",
                bounded_as_expected);
  return bench::finish_bench(ctx, res);
}

}  // namespace

PSLLC_REGISTER_BENCH(unbounded_wcl, run)
