#include "results/diff.h"

#include <algorithm>
#include <memory>
#include <sstream>

namespace psllc::results {

std::string DiffFinding::to_string() const {
  std::ostringstream oss;
  oss << (severity == Severity::kRegression ? "REGRESSION" : "info") << " ["
      << bench;
  if (!series.empty()) {
    oss << "/" << series;
  }
  if (!column.empty()) {
    oss << ":" << column;
  }
  if (row >= 0) {
    oss << " row " << row;
  }
  oss << "] " << message;
  return oss.str();
}

bool DiffReport::ok() const { return num_regressions() == 0; }

int DiffReport::num_regressions() const {
  int count = 0;
  for (const DiffFinding& finding : findings) {
    count += finding.severity == DiffFinding::Severity::kRegression ? 1 : 0;
  }
  return count;
}

std::string DiffReport::to_text() const {
  std::ostringstream oss;
  for (const DiffFinding& finding : findings) {
    oss << finding.to_string() << '\n';
  }
  oss << "compared " << benches_compared << " bench result(s): "
      << num_regressions() << " regression(s), "
      << static_cast<int>(findings.size()) - num_regressions()
      << " note(s)\n";
  return oss.str();
}

namespace {

using Severity = DiffFinding::Severity;

DiffFinding finding(Severity severity, std::string bench, std::string series,
                    std::string column, int row, std::string message) {
  DiffFinding f;
  f.severity = severity;
  f.bench = std::move(bench);
  f.series = std::move(series);
  f.column = std::move(column);
  f.row = row;
  f.message = std::move(message);
  return f;
}

/// Cell comparison: exact `Value` equality (two DNF cells agree). Returns
/// an empty string when the cells agree, else a message naming both values.
std::string compare_cells(const Value& golden, const Value& candidate) {
  if (golden == candidate) {
    return "";
  }
  return "golden " + golden.repr() + " vs candidate " + candidate.repr();
}

/// Describes how two unequal column lists differ: the type and unit
/// changes of each column when the names match, else both name lists.
std::string schema_change(const std::vector<Column>& golden,
                          const std::vector<Column>& candidate) {
  std::ostringstream oss;
  oss << "column schema changed";
  const bool same_names = std::equal(
      golden.begin(), golden.end(), candidate.begin(), candidate.end(),
      [](const Column& a, const Column& b) { return a.name == b.name; });
  if (same_names) {
    for (std::size_t c = 0; c < golden.size(); ++c) {
      const Column& g = golden[c];
      const Column& n = candidate[c];
      if (g.type != n.type) {
        oss << "; column '" << g.name << "' type changed: "
            << to_string(g.type) << " -> " << to_string(n.type);
      }
      if (g.unit != n.unit) {
        oss << "; column '" << g.name << "' unit changed: " << g.unit
            << " -> " << n.unit;
      }
    }
    return oss.str();
  }
  oss << " (golden:";
  for (const Column& c : golden) {
    oss << ' ' << c.name;
  }
  oss << " | candidate:";
  for (const Column& c : candidate) {
    oss << ' ' << c.name;
  }
  oss << ")";
  return oss.str();
}

void diff_series(const std::string& bench, const Series& golden,
                 const Series& candidate, std::vector<DiffFinding>& out) {
  if (golden.columns() != candidate.columns()) {
    out.push_back(
        finding(Severity::kRegression, bench, golden.name(), "", -1,
                schema_change(golden.columns(), candidate.columns())));
    return;
  }
  if (golden.num_rows() != candidate.num_rows()) {
    out.push_back(finding(Severity::kRegression, bench, golden.name(), "",
                          -1,
                          "row count changed: golden " +
                              std::to_string(golden.num_rows()) +
                              " vs candidate " +
                              std::to_string(candidate.num_rows())));
    return;
  }
  for (int r = 0; r < golden.num_rows(); ++r) {
    const auto& grow = golden.rows()[static_cast<std::size_t>(r)];
    const auto& crow = candidate.rows()[static_cast<std::size_t>(r)];
    for (std::size_t c = 0; c < golden.columns().size(); ++c) {
      const std::string mismatch = compare_cells(grow[c], crow[c]);
      if (!mismatch.empty()) {
        out.push_back(finding(Severity::kRegression, bench, golden.name(),
                              golden.columns()[c].name, r, mismatch));
      }
    }
  }
}

}  // namespace

std::vector<DiffFinding> diff_bench_results(const BenchResult& golden,
                                            const BenchResult& candidate) {
  std::vector<DiffFinding> out;
  const std::string& bench = golden.meta().bench;
  if (candidate.meta().bench != bench) {
    out.push_back(finding(Severity::kRegression, bench, "", "", -1,
                          "bench name changed to '" +
                              candidate.meta().bench + "'"));
    return out;
  }
  // Claims: compared by name; a changed verdict or a vanished claim is a
  // regression, a brand-new claim is informational.
  for (const Claim& gc : golden.claims()) {
    const Claim* match = nullptr;
    for (const Claim& cc : candidate.claims()) {
      if (cc.name == gc.name) {
        match = &cc;
        break;
      }
    }
    if (match == nullptr) {
      out.push_back(finding(Severity::kRegression, bench, "", "", -1,
                            "claim '" + gc.name + "' disappeared"));
    } else if (match->pass != gc.pass) {
      out.push_back(finding(Severity::kRegression, bench, "", "", -1,
                            "claim '" + gc.name + "' changed: golden " +
                                (gc.pass ? "PASS" : "FAIL") +
                                " vs candidate " +
                                (match->pass ? "PASS" : "FAIL")));
    }
  }
  for (const Claim& cc : candidate.claims()) {
    bool known = false;
    for (const Claim& gc : golden.claims()) {
      known = known || gc.name == cc.name;
    }
    if (!known) {
      out.push_back(finding(Severity::kInfo, bench, "", "", -1,
                            "new claim '" + cc.name + "' (" +
                                (cc.pass ? "PASS" : "FAIL") +
                                "), not in golden"));
    }
  }
  for (const Series& gs : golden.series()) {
    const Series* cs = candidate.find_series(gs.name());
    if (cs == nullptr) {
      out.push_back(finding(Severity::kRegression, bench, gs.name(), "", -1,
                            "series disappeared"));
      continue;
    }
    diff_series(bench, gs, *cs, out);
  }
  for (const Series& cs : candidate.series()) {
    if (golden.find_series(cs.name()) == nullptr) {
      out.push_back(finding(Severity::kInfo, bench, cs.name(), "", -1,
                            "new series, not in golden"));
    }
  }
  return out;
}

DiffReport diff_directories(const std::filesystem::path& golden_root,
                            const std::filesystem::path& candidate_root) {
  if (!std::filesystem::is_directory(golden_root)) {
    throw std::runtime_error("golden root " + golden_root.string() +
                             " is not a directory");
  }
  std::vector<std::string> golden_benches;
  for (const auto& entry :
       std::filesystem::directory_iterator(golden_root)) {
    if (entry.is_directory() &&
        std::filesystem::exists(entry.path() / "result.json")) {
      golden_benches.push_back(entry.path().filename().string());
    }
  }
  std::sort(golden_benches.begin(), golden_benches.end());
  if (golden_benches.empty()) {
    throw std::runtime_error("golden root " + golden_root.string() +
                             " holds no <bench>/result.json");
  }

  DiffReport report;
  for (const std::string& bench : golden_benches) {
    // A broken committed baseline is reported as a named finding, not a
    // tool error, so the remaining benches still get compared.
    std::unique_ptr<BenchResult> golden_result;
    try {
      golden_result =
          std::make_unique<BenchResult>(BenchResult::load(golden_root / bench));
    } catch (const std::exception& e) {
      report.findings.push_back(finding(Severity::kRegression, bench, "", "",
                                        -1,
                                        std::string("golden unreadable: ") +
                                            e.what()));
      continue;
    }
    const BenchResult& golden = *golden_result;
    const std::filesystem::path candidate_dir = candidate_root / bench;
    if (!std::filesystem::exists(candidate_dir / "result.json")) {
      report.findings.push_back(
          finding(Severity::kRegression, bench, "", "", -1,
                  "missing from candidate (" + candidate_dir.string() +
                      "/result.json not found)"));
      continue;
    }
    try {
      const BenchResult candidate = BenchResult::load(candidate_dir);
      auto findings = diff_bench_results(golden, candidate);
      report.findings.insert(report.findings.end(),
                             std::make_move_iterator(findings.begin()),
                             std::make_move_iterator(findings.end()));
      ++report.benches_compared;
    } catch (const std::exception& e) {
      report.findings.push_back(finding(Severity::kRegression, bench, "", "",
                                        -1,
                                        std::string("candidate unreadable: ") +
                                            e.what()));
    }
  }
  if (std::filesystem::is_directory(candidate_root)) {
    for (const auto& entry :
         std::filesystem::directory_iterator(candidate_root)) {
      if (!entry.is_directory() ||
          !std::filesystem::exists(entry.path() / "result.json")) {
        continue;
      }
      const std::string bench = entry.path().filename().string();
      if (std::find(golden_benches.begin(), golden_benches.end(), bench) ==
          golden_benches.end()) {
        report.findings.push_back(
            finding(Severity::kInfo, bench, "", "", -1,
                    "present in candidate but not in golden"));
      }
    }
  }
  std::sort(report.findings.begin(), report.findings.end(),
            [](const DiffFinding& a, const DiffFinding& b) {
              if (a.bench != b.bench) {
                return a.bench < b.bench;
              }
              if (a.series != b.series) {
                return a.series < b.series;
              }
              if (a.row != b.row) {
                return a.row < b.row;
              }
              return a.column < b.column;
            });
  return report;
}

}  // namespace psllc::results
