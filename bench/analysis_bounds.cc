// Experiment E7 — the paper's analytical claims, regenerated from the
// closed-form analysis (no simulation):
//  * the Figure 7 analytical lines (5000 / 979250 / 450 cycles);
//  * Section 4.5's set-sequencer improvement for the "4-core, 16-way LLC
//    with 128 cache lines" example, including the paper's (m+1)*w
//    back-of-envelope 2048x versus the exact theorem ratio;
//  * a sweep showing Theorem 4.7 growing with partition size while
//    Theorem 4.8 stays flat (the WCL becomes independent of cache and
//    partition sizes).
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "core/wcl_analysis.h"

namespace {

using namespace psllc;        // NOLINT
using namespace psllc::core;  // NOLINT

constexpr char kTitle[] = "Analytical WCL bounds (Theorems 4.7 / 4.8)";
constexpr char kReference[] =
    "Wu & Patel, DAC'22, Sections 4.4-4.5 + Figure 7 lines";

SharedPartitionScenario scenario(int sets, int ways, int n, int m_cua = 64) {
  SharedPartitionScenario s;
  s.total_cores = 4;
  s.sharers = n;
  s.partition_sets = sets;
  s.partition_ways = ways;
  s.cua_capacity_lines = m_cua;
  return s;
}

// Everything in this bench is closed-form analysis: any drift across
// commits is a regression in the bounds themselves.
constexpr auto kInt = results::ColumnType::kInt;
constexpr auto kReal = results::ColumnType::kReal;
constexpr auto kText = results::ColumnType::kText;

int run(bench::BenchContext& ctx) {
  bench::print_header(kTitle, kReference);

  results::BenchResult res(
      ctx.make_meta("analysis_bounds", kTitle, kReference));

  // --- Figure 7 analytical lines ---
  auto& lines = res.add_series("fig7_lines",
                               {{"configuration", kText, ""},
                                {"bound", kText, ""},
                                {"cycles", kInt, "cycles"},
                                {"paper_cycles", kInt, "cycles"}});
  lines.add_row({results::Value::of_text("SS(n=4)"),
                 results::Value::of_text("Thm 4.8"),
                 results::Value::of_int(
                     wcl_set_sequencer_cycles(scenario(1, 2, 4))),
                 results::Value::of_int(5000)});
  lines.add_row({results::Value::of_text("NSS(1,16,4) m=16"),
                 results::Value::of_text("Thm 4.7"),
                 results::Value::of_int(wcl_1s_tdm_cycles(scenario(1, 16, 4))),
                 results::Value::of_int(979250)});
  lines.add_row({results::Value::of_text("P (private)"),
                 results::Value::of_text("2N+1 slots"),
                 results::Value::of_int(
                     wcl_private_cycles(4, kPaperSlotWidth)),
                 results::Value::of_int(450)});

  // --- Section 4.5 improvement example ---
  const auto example =
      scenario(8, 16, 4, /*m_cua=*/128);  // 128-line 16-way LLC
  auto& improvement =
      res.add_series("improvement_example",
                     {{"m_lines", kInt, ""},
                      {"thm47_bound", kInt, "cycles"},
                      {"thm48_bound", kInt, "cycles"},
                      {"exact_ratio", kReal, "ratio"},
                      {"paper_envelope", kInt, "ratio"}});
  improvement.add_row(
      {results::Value::of_int(example.m()),
       results::Value::of_int(wcl_1s_tdm_cycles(example)),
       results::Value::of_int(wcl_set_sequencer_cycles(example)),
       results::Value::of_real(wcl_improvement_ratio(example)),
       results::Value::of_int((example.m() + 1) * example.partition_ways)});
  std::printf(
      "Section 4.5 example (4 cores, 16-way, 128-line LLC, m = %d):\n"
      "  Thm 4.7 bound: %s cycles\n"
      "  Thm 4.8 bound: %s cycles\n"
      "  exact ratio:   %.1fx   (paper's (m+1)*w back-of-envelope: %dx)\n\n",
      example.m(), format_cycles(wcl_1s_tdm_cycles(example)).c_str(),
      format_cycles(wcl_set_sequencer_cycles(example)).c_str(),
      wcl_improvement_ratio(example),
      (example.m() + 1) * example.partition_ways);

  // --- bound vs partition size sweep ---
  auto& sweep = res.add_series("bound_sweep",
                               {{"partition", kText, ""},
                                {"m_lines", kInt, ""},
                                {"thm47_bound", kInt, "cycles"},
                                {"thm48_bound", kInt, "cycles"},
                                {"ratio", kReal, "ratio"}});
  for (const auto& [sets, ways] : std::vector<std::pair<int, int>>{
           {1, 2}, {1, 4}, {1, 16}, {4, 4}, {8, 8}, {16, 16}, {32, 16}}) {
    const auto s = scenario(sets, ways, 4);
    sweep.add_row({results::Value::of_text(std::to_string(sets) + "x" +
                                           std::to_string(ways)),
                   results::Value::of_int(s.partition_lines()),
                   results::Value::of_int(wcl_1s_tdm_cycles(s)),
                   results::Value::of_int(wcl_set_sequencer_cycles(s)),
                   results::Value::of_real(wcl_improvement_ratio(s))});
  }

  // --- sharer count sweep (the cubic term) ---
  auto& sharers = res.add_series("sharer_sweep",
                                 {{"sharers", kInt, ""},
                                  {"thm47_bound", kInt, "cycles"},
                                  {"thm48_bound", kInt, "cycles"}});
  for (int n = 2; n <= 4; ++n) {
    const auto s = scenario(1, 4, n);
    sharers.add_row({results::Value::of_int(n),
                     results::Value::of_int(wcl_1s_tdm_cycles(s)),
                     results::Value::of_int(wcl_set_sequencer_cycles(s))});
  }

  const bool exact =
      wcl_set_sequencer_cycles(scenario(1, 2, 4)) == 5000 &&
      wcl_1s_tdm_cycles(scenario(1, 16, 4)) == 979250 &&
      wcl_private_cycles(4, kPaperSlotWidth) == 450;
  res.add_claim("Figure 7 analytical lines match exactly", exact);
  return bench::finish_bench(ctx, res);
}

}  // namespace

PSLLC_REGISTER_BENCH(analysis_bounds, run)
