// Schema'd result store for the bench executables.
//
// Every bench emits one BenchResult: run metadata (bench name, commit,
// profile, config grid parameters, units) plus typed series, written as
//   <root>/<bench>/result.json      (canonical, machine-diffable)
//   <root>/<bench>/<series>.csv     (one per series, for plotting)
// Columns are typed (int, real or text) and carry a unit. Every value is
// exact (simulated cycle counts, analytical WCL bounds, configuration
// labels, claim checks), so tools/results_diff compares cells bit-for-bit.
#ifndef PSLLC_RESULTS_RESULT_STORE_H_
#define PSLLC_RESULTS_RESULT_STORE_H_

#include <cstdint>
#include <deque>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "results/json.h"

namespace psllc::results {

/// Cell type of a column.
enum class ColumnType { kInt, kReal, kText };

[[nodiscard]] std::string to_string(ColumnType type);
[[nodiscard]] ColumnType column_type_from_string(const std::string& text);

struct Column {
  std::string name;
  ColumnType type = ColumnType::kInt;
  std::string unit;  ///< "cycles", "bytes", "ratio", "" for labels

  [[nodiscard]] bool operator==(const Column&) const = default;
};

/// One typed cell. Null models a run that did not finish (rendered "DNF"
/// in CSV, null in JSON).
class Value {
 public:
  enum class Type { kNull, kInt, kReal, kText };

  Value() : type_(Type::kNull) {}
  static Value null() { return Value(); }
  static Value of_int(std::int64_t v);
  static Value of_real(double v);
  static Value of_text(std::string v);
  /// of_int when `completed`, null (DNF) otherwise — the common pattern for
  /// cycle counts from runs bounded by a horizon.
  static Value of_cycles(std::int64_t v, bool completed);

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_real() const;  ///< accepts kInt
  [[nodiscard]] const std::string& as_text() const;

  /// Machine representation used in CSV cells and diff messages.
  [[nodiscard]] std::string repr() const;
  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static Value from_json(const Json& json, ColumnType type);

  [[nodiscard]] bool operator==(const Value&) const = default;

 private:
  Type type_;
  std::int64_t int_ = 0;
  double real_ = 0;
  std::string text_;
};

/// A named table of typed columns. Rows are validated against the schema on
/// insertion: wrong arity, a non-null cell of the wrong type, or a
/// non-finite real (NaN/inf would serialize differently in JSON vs CSV)
/// throws ConfigError (null is allowed in any column).
class Series {
 public:
  Series(std::string name, std::vector<Column> columns);

  void add_row(std::vector<Value> cells);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Column>& columns() const {
    return columns_;
  }
  [[nodiscard]] const std::vector<std::vector<Value>>& rows() const {
    return rows_;
  }
  [[nodiscard]] int num_rows() const { return static_cast<int>(rows_.size()); }

  /// Pretty console rendering (thousands separators for cycle counts);
  /// CSV output is always the raw machine representation.
  [[nodiscard]] Table to_table() const;
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static Series from_json(const Json& json);

 private:
  std::string name_;
  std::vector<Column> columns_;
  std::vector<std::vector<Value>> rows_;
};

/// A named boolean claim check ("observed <= analytical everywhere").
/// Claims are exact: a PASS->FAIL transition is always a regression.
struct Claim {
  std::string name;
  bool pass = false;

  [[nodiscard]] bool operator==(const Claim&) const = default;
};

/// Run metadata. `commit` and friends are informational (ignored by the
/// diff); bench/title/reference identify the artifact.
struct RunMeta {
  std::string bench;      ///< directory name under the results root
  std::string title;
  std::string reference;  ///< paper figure/section reproduced
  /// Free-form config-grid parameters (seed, accesses, profile, commit...),
  /// emission order preserved.
  std::vector<std::pair<std::string, std::string>> params;

  void set_param(const std::string& key, const std::string& value);
  [[nodiscard]] const std::string* find_param(const std::string& key) const;
};

/// The full result of one bench run.
class BenchResult {
 public:
  static constexpr int kSchemaVersion = 1;

  explicit BenchResult(RunMeta meta);

  [[nodiscard]] const RunMeta& meta() const { return meta_; }
  [[nodiscard]] RunMeta& meta() { return meta_; }

  /// Adds an empty series; the returned reference stays valid for the
  /// lifetime of the BenchResult (series are stored in a deque, so later
  /// add_series calls never relocate earlier ones). Duplicate names throw
  /// ConfigError.
  Series& add_series(std::string name, std::vector<Column> columns);
  void add_series(Series series);
  [[nodiscard]] const std::deque<Series>& series() const { return series_; }
  [[nodiscard]] const Series* find_series(const std::string& name) const;

  void add_claim(const std::string& name, bool pass);
  [[nodiscard]] const std::vector<Claim>& claims() const { return claims_; }
  /// True iff every recorded claim passed.
  [[nodiscard]] bool all_claims_pass() const;

  [[nodiscard]] Json to_json() const;
  [[nodiscard]] std::string to_json_text() const;
  [[nodiscard]] static BenchResult from_json(const Json& json);
  [[nodiscard]] static BenchResult from_json_text(const std::string& text);

  /// Writes <root>/<bench>/result.json (+ one CSV per series unless
  /// `write_csv` is false). Creates directories as needed; throws
  /// std::runtime_error on I/O failure.
  void write(const std::filesystem::path& root, bool write_csv = true) const;

  /// Loads <dir>/result.json.
  [[nodiscard]] static BenchResult load(const std::filesystem::path& dir);

 private:
  RunMeta meta_;
  std::deque<Series> series_;
  std::vector<Claim> claims_;
};

/// Resolution of the results root directory, in priority order:
///   1. `explicit_dir` if non-empty (a --results-dir flag),
///   2. the PSLLC_RESULTS_DIR environment variable,
///   3. "bench_results" under the current working directory.
/// Benches therefore work from any directory when either override is set.
[[nodiscard]] std::filesystem::path resolve_results_root(
    const std::string& explicit_dir = "");

/// Best-effort commit id for run metadata: PSLLC_GIT_COMMIT, then
/// GITHUB_SHA, else "unknown". Never invokes git (results must not depend
/// on the presence of a work tree).
[[nodiscard]] std::string current_commit_id();

}  // namespace psllc::results

#endif  // PSLLC_RESULTS_RESULT_STORE_H_
