// Ablation A4 — extension beyond the paper: does the set sequencer bound
// the WCL even under weighted (non-1S) TDM schedules? The paper only proves
// Theorem 4.8 for 1S-TDM; empirically, FIFO ordering alone excludes the
// Section 4.1 starvation pattern. This bench sweeps interferer slot weights
// and compares NSS (starves) against SS (bounded wait).
#include <string>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "core/system.h"
#include "sim/workload.h"

namespace {

using namespace psllc;        // NOLINT
using namespace psllc::core;  // NOLINT

constexpr char kTitle[] =
    "Ablation: set sequencer under weighted (non-1S) TDM schedules";
constexpr char kReference[] =
    "extension of Wu & Patel, DAC'22, Sections 4.1-4.2";

struct Outcome {
  bool completed = false;
  Cycle wait = 0;
  std::size_t interferer_ops = 0;
};

Outcome run_variant(llc::ContentionMode mode, int interferer_weight,
                    std::int64_t horizon_slots) {
  SystemConfig config;
  config.num_cores = 2;
  config.mode = mode;
  config.keep_request_records = true;
  config.schedule_slots.clear();
  config.schedule_slots.emplace_back(0);
  for (int k = 0; k < interferer_weight; ++k) {
    config.schedule_slots.emplace_back(1);
  }
  llc::PartitionMap partitions = llc::make_shared_partition(
      config.llc.geometry, {CoreId{0}, CoreId{1}}, 1, 2);
  System system(config, std::move(partitions));
  // cua: one delayed request; interferer: endless conflict stream.
  system.set_trace(CoreId{0},
                   Trace{MemOp{0x100000ULL * 64, AccessType::kRead, 289}});
  Trace interferer;
  for (int i = 0; i < (1 << 20); ++i) {
    interferer.push_back(
        MemOp{(0x200000ULL + static_cast<Addr>(i)) * 64});
  }
  system.set_trace(CoreId{1}, std::move(interferer));
  system.run_slots(horizon_slots);
  Outcome outcome;
  outcome.completed =
      system.tracker().service_latency(CoreId{0}).count() > 0;
  outcome.wait = outcome.completed
                     ? system.tracker().service_latency(CoreId{0}).max()
                     : system.now();
  outcome.interferer_ops = system.ops_completed(CoreId{1});
  return outcome;
}

int run(bench::BenchContext& ctx) {
  bench::print_header(kTitle, kReference);
  const std::int64_t horizon = ctx.pick<std::int64_t>(20000, 8000);

  results::BenchResult res(
      ctx.make_meta("ablation_schedule", kTitle, kReference));
  res.meta().set_param("horizon_slots", std::to_string(horizon));
  auto& series = res.add_series(
      "weighted_tdm",
      {{"interferer_slots", results::ColumnType::kInt, ""},
       {"mode", results::ColumnType::kText, ""},
       {"cua_completed", results::ColumnType::kText, ""},
       {"cua_wait", results::ColumnType::kInt, "cycles"},
       {"interferer_ops", results::ColumnType::kInt, ""}});
  bool nss_starves = true;
  bool ss_bounded = true;
  for (const int weight : {1, 2, 3, 4}) {
    for (const auto mode : {llc::ContentionMode::kBestEffort,
                            llc::ContentionMode::kSetSequencer}) {
      const Outcome outcome = run_variant(mode, weight, horizon);
      series.add_row(
          {results::Value::of_int(weight),
           results::Value::of_text(to_string(mode)),
           results::Value::of_text(outcome.completed ? "yes"
                                                     : "NO (starving)"),
           results::Value::of_int(static_cast<std::int64_t>(outcome.wait)),
           results::Value::of_int(
               static_cast<std::int64_t>(outcome.interferer_ops))});
      if (mode == llc::ContentionMode::kBestEffort && weight > 1) {
        nss_starves = nss_starves && !outcome.completed;
      }
      if (mode == llc::ContentionMode::kSetSequencer) {
        ss_bounded = ss_bounded && outcome.completed;
      }
    }
  }
  res.add_claim("NSS starves for every multi-slot weight", nss_starves);
  res.add_claim("SS completes for every weight", ss_bounded);
  return bench::finish_bench(ctx, res);
}

}  // namespace

PSLLC_REGISTER_BENCH(ablation_schedule, run)
