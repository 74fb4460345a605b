// Comparison of two result-store directories (golden baseline vs a fresh
// run), the engine behind tools/results_diff. Every cell and claim check
// must match bit-for-bit. Any finding of severity kRegression makes the
// diff fail (results_diff exits nonzero).
#ifndef PSLLC_RESULTS_DIFF_H_
#define PSLLC_RESULTS_DIFF_H_

#include <filesystem>
#include <string>
#include <vector>

#include "results/result_store.h"

namespace psllc::results {

struct DiffFinding {
  enum class Severity { kInfo, kRegression };
  Severity severity = Severity::kRegression;
  std::string bench;
  std::string series;   ///< empty for bench-level findings
  std::string column;   ///< empty unless cell-level
  int row = -1;         ///< -1 unless cell-level
  std::string message;  ///< human-readable, includes both values

  [[nodiscard]] std::string to_string() const;
};

struct DiffReport {
  std::vector<DiffFinding> findings;
  int benches_compared = 0;

  [[nodiscard]] bool ok() const;
  [[nodiscard]] int num_regressions() const;
  /// One line per finding plus a summary line.
  [[nodiscard]] std::string to_text() const;
};

/// Compares two loaded bench results (golden vs candidate).
[[nodiscard]] std::vector<DiffFinding> diff_bench_results(
    const BenchResult& golden, const BenchResult& candidate);

/// Compares every `<bench>/result.json` under `golden_root` against
/// `candidate_root`. Unreadable/missing candidate results are regressions;
/// a bench present only in the candidate is kInfo (a new bench is not a
/// regression). Throws std::runtime_error only if `golden_root` itself is
/// unusable.
[[nodiscard]] DiffReport diff_directories(
    const std::filesystem::path& golden_root,
    const std::filesystem::path& candidate_root);

}  // namespace psllc::results

#endif  // PSLLC_RESULTS_DIFF_H_
