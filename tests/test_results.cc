// Tests for the result store: JSON round trips, schema validation on
// series insertion, and results_diff's bit-for-bit comparison on synthetic
// regressions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/assert.h"
#include "results/diff.h"
#include "results/json.h"
#include "results/result_store.h"

namespace psllc::results {
namespace {

// --- JSON --------------------------------------------------------------------

TEST(Json, ParsesScalarsAndContainers) {
  const Json doc = Json::parse(
      R"({"a": 1, "b": -2.5, "c": "x\ny", "d": [1, 2, null], "e": true})");
  EXPECT_EQ(doc.at("a").as_int(), 1);
  EXPECT_DOUBLE_EQ(doc.at("b").as_real(), -2.5);
  EXPECT_EQ(doc.at("c").as_string(), "x\ny");
  ASSERT_EQ(doc.at("d").as_array().size(), 3u);
  EXPECT_TRUE(doc.at("d").as_array()[2].is_null());
  EXPECT_TRUE(doc.at("e").as_bool());
}

TEST(Json, KeepsIntRealDistinction) {
  const Json doc = Json::parse(R"([979250, 979250.0])");
  EXPECT_EQ(doc.as_array()[0].type(), Json::Type::kInt);
  EXPECT_EQ(doc.as_array()[1].type(), Json::Type::kReal);
}

TEST(Json, DumpParseRoundTripIsByteStable) {
  Json object = Json::make_object();
  object.set("name", Json::make_string("fig7 \"quoted\"\n"));
  object.set("count", Json::make_int(-42));
  object.set("ratio", Json::make_real(2.0));
  Json rows = Json::make_array();
  Json row = Json::make_array();
  row.push_back(Json::make_int(1024));
  row.push_back(Json::make_null());
  rows.push_back(std::move(row));
  object.set("rows", std::move(rows));
  const std::string once = object.dump();
  const std::string twice = Json::parse(once).dump();
  EXPECT_EQ(once, twice);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(Json::parse("{"), JsonParseError);
  EXPECT_THROW(Json::parse("[1, 2] trailing"), JsonParseError);
  EXPECT_THROW(Json::parse("{\"a\": nope}"), JsonParseError);
  EXPECT_THROW(Json::parse("\"\\x\""), JsonParseError);
  EXPECT_THROW(Json::parse("01x"), JsonParseError);
}

TEST(Json, MissingKeyAndTypeMismatchThrow) {
  const Json doc = Json::parse(R"({"a": 1})");
  EXPECT_THROW((void)doc.at("b"), JsonParseError);
  EXPECT_THROW((void)doc.at("a").as_string(), JsonParseError);
  EXPECT_EQ(doc.find("b"), nullptr);
}

// --- Series schema validation ------------------------------------------------

std::vector<Column> two_columns() {
  return {{"config", ColumnType::kText, ""},
          {"wcl", ColumnType::kInt, "cycles"}};
}

TEST(Series, RejectsMismatchedRowLength) {
  Series series("wcl", two_columns());
  EXPECT_THROW(series.add_row({Value::of_text("SS")}), ConfigError);
  EXPECT_THROW(series.add_row({Value::of_text("SS"), Value::of_int(1),
                               Value::of_int(2)}),
               ConfigError);
  series.add_row({Value::of_text("SS"), Value::of_int(1)});
  EXPECT_EQ(series.num_rows(), 1);
}

TEST(Series, RejectsWrongCellType) {
  Series series("wcl", two_columns());
  EXPECT_THROW(series.add_row({Value::of_int(1), Value::of_int(2)}),
               ConfigError);
  EXPECT_THROW(series.add_row({Value::of_text("SS"), Value::of_text("x")}),
               ConfigError);
  // Null is allowed anywhere (DNF), ints coerce into real columns.
  series.add_row({Value::null(), Value::null()});
}

TEST(Series, CsvUsesMachineReprAndDnf) {
  Series series("wcl", two_columns());
  series.add_row({Value::of_text("SS(1,2,4)"), Value::of_int(979250)});
  series.add_row({Value::of_text("P"), Value::null()});
  EXPECT_EQ(series.to_csv(),
            "config,wcl\n\"SS(1,2,4)\",979250\nP,DNF\n");
}

TEST(Series, RejectsNonFiniteReals) {
  // JSON nulls NaN/inf while CSV spells them out, so one run's two
  // artifacts would disagree and results_diff would compare against the
  // silently-nulled value. Insertion is the single choke point.
  const std::vector<Column> columns = {
      {"config", ColumnType::kText, ""},
      {"speedup", ColumnType::kReal, "ratio"}};
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    Series series("speedup", columns);
    try {
      series.add_row({Value::of_text("SS"), Value::of_real(bad)});
      FAIL() << "non-finite value " << bad << " was accepted";
    } catch (const ConfigError& e) {
      // The error must name the series and the offending column.
      EXPECT_NE(std::string(e.what()).find("speedup"), std::string::npos);
      EXPECT_EQ(series.num_rows(), 0);
    }
  }
  // Finite reals and DNF nulls still insert.
  Series ok("speedup", columns);
  ok.add_row({Value::of_text("SS"), Value::of_real(1.5)});
  ok.add_row({Value::of_text("NSS"), Value::null()});
  EXPECT_EQ(ok.num_rows(), 2);
}

TEST(Series, FromJsonNullsStayAllowedAsDnf) {
  // from_json funnels through add_row (which rejects non-finite reals —
  // covered above); JSON itself cannot encode NaN/inf, the writer nulls
  // them, and a null real cell must keep loading as DNF.
  Json json = Json::parse(R"({
    "name": "speedup",
    "columns": [
      {"name": "ratio", "type": "real", "unit": "ratio"}
    ],
    "rows": [[null], [2.5]]
  })");
  const Series series = Series::from_json(json);
  EXPECT_EQ(series.num_rows(), 2);
  EXPECT_TRUE(series.rows()[0][0].is_null());
}

TEST(BenchResult, RejectsDuplicateSeries) {
  RunMeta meta;
  meta.bench = "b";
  BenchResult result(std::move(meta));
  result.add_series("s", two_columns());
  EXPECT_THROW(result.add_series("s", two_columns()), ConfigError);
}

// --- BenchResult round trip --------------------------------------------------

BenchResult sample_result() {
  RunMeta meta;
  meta.bench = "fig7_wcl";
  meta.title = "Figure 7";
  meta.reference = "DAC'22 5.1";
  meta.set_param("seed", "7");
  BenchResult result(std::move(meta));
  Series& series = result.add_series(
      "observed_wcl",
      {{"range_bytes", ColumnType::kInt, "bytes"},
       {"SS(1,2,4)", ColumnType::kInt, "cycles"},
       {"ratio", ColumnType::kReal, "ratio"}});
  series.add_row({Value::of_int(1024), Value::of_int(414),
                  Value::of_real(1.25)});
  series.add_row({Value::of_int(2048), Value::null(), Value::of_real(0.5)});
  result.add_claim("bounds hold", true);
  result.add_claim("nss above ss", false);
  return result;
}

TEST(BenchResult, JsonRoundTripPreservesEverything) {
  const BenchResult original = sample_result();
  const BenchResult reloaded =
      BenchResult::from_json_text(original.to_json_text());
  EXPECT_EQ(reloaded.meta().bench, "fig7_wcl");
  EXPECT_EQ(reloaded.meta().title, "Figure 7");
  ASSERT_NE(reloaded.meta().find_param("seed"), nullptr);
  EXPECT_EQ(*reloaded.meta().find_param("seed"), "7");
  ASSERT_EQ(reloaded.claims().size(), 2u);
  EXPECT_TRUE(reloaded.claims()[0].pass);
  EXPECT_FALSE(reloaded.claims()[1].pass);
  EXPECT_FALSE(reloaded.all_claims_pass());
  const Series* series = reloaded.find_series("observed_wcl");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->columns(),
            sample_result().find_series("observed_wcl")->columns());
  EXPECT_EQ(series->rows(),
            sample_result().find_series("observed_wcl")->rows());
  // Byte-stable through a second round trip.
  EXPECT_EQ(original.to_json_text(), reloaded.to_json_text());
}

TEST(BenchResult, WriteLoadRoundTripOnDisk) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "psllc_store_rt";
  std::filesystem::remove_all(root);
  const BenchResult original = sample_result();
  original.write(root);
  EXPECT_TRUE(std::filesystem::exists(root / "fig7_wcl" / "result.json"));
  EXPECT_TRUE(
      std::filesystem::exists(root / "fig7_wcl" / "observed_wcl.csv"));
  const BenchResult reloaded = BenchResult::load(root / "fig7_wcl");
  EXPECT_EQ(reloaded.to_json_text(), original.to_json_text());
  std::filesystem::remove_all(root);
}

TEST(ResultStore, ResolvesRootFromFlagThenEnvThenDefault) {
  ASSERT_EQ(unsetenv("PSLLC_RESULTS_DIR"), 0);
  EXPECT_EQ(resolve_results_root(), std::filesystem::path("bench_results"));
  ASSERT_EQ(setenv("PSLLC_RESULTS_DIR", "/tmp/psllc_env_results", 1), 0);
  EXPECT_EQ(resolve_results_root(),
            std::filesystem::path("/tmp/psllc_env_results"));
  EXPECT_EQ(resolve_results_root("explicit"),
            std::filesystem::path("explicit"));
  ASSERT_EQ(unsetenv("PSLLC_RESULTS_DIR"), 0);
}

// --- diff --------------------------------------------------------------------

TEST(Diff, IdenticalResultsProduceNoFindings) {
  const auto findings = diff_bench_results(sample_result(), sample_result());
  EXPECT_TRUE(findings.empty());
}

BenchResult with_cell(std::int64_t range_value, std::int64_t wcl_value) {
  RunMeta meta;
  meta.bench = "b";
  BenchResult result(std::move(meta));
  Series& series = result.add_series(
      "s", {{"range_bytes", ColumnType::kInt, "bytes"},
            {"wcl", ColumnType::kInt, "cycles"}});
  series.add_row({Value::of_int(range_value), Value::of_int(wcl_value)});
  return result;
}

TEST(Diff, ExactColumnRegressionIsNamed) {
  const auto findings =
      diff_bench_results(with_cell(1024, 1000), with_cell(2048, 1000));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, DiffFinding::Severity::kRegression);
  EXPECT_EQ(findings[0].series, "s");
  EXPECT_EQ(findings[0].column, "range_bytes");
  EXPECT_EQ(findings[0].row, 0);
  EXPECT_NE(findings[0].message.find("1024"), std::string::npos);
  EXPECT_NE(findings[0].message.find("2048"), std::string::npos);
}

BenchResult with_one_cell(ColumnType type, Value cell) {
  RunMeta meta;
  meta.bench = "b";
  BenchResult result(std::move(meta));
  result.add_series("s", {{"x", type, ""}}).add_row({std::move(cell)});
  return result;
}

TEST(Diff, CellsCompareBitForBit) {
  // Ints above 2^53 that one double cannot tell apart still differ.
  const auto ints = diff_bench_results(
      with_one_cell(ColumnType::kInt, Value::of_int(9007199254740993)),
      with_one_cell(ColumnType::kInt, Value::of_int(9007199254740992)));
  ASSERT_EQ(ints.size(), 1u);
  EXPECT_EQ(ints[0].severity, DiffFinding::Severity::kRegression);
  EXPECT_NE(ints[0].message.find("9007199254740993"), std::string::npos);
  // So do adjacent doubles.
  const auto reals = diff_bench_results(
      with_one_cell(ColumnType::kReal, Value::of_real(1.0)),
      with_one_cell(ColumnType::kReal,
                    Value::of_real(std::nextafter(1.0, 2.0))));
  ASSERT_EQ(reals.size(), 1u);
  EXPECT_EQ(reals[0].severity, DiffFinding::Severity::kRegression);
  // Two DNF cells agree.
  EXPECT_TRUE(
      diff_bench_results(with_one_cell(ColumnType::kInt, Value::null()),
                         with_one_cell(ColumnType::kInt, Value::null()))
          .empty());
}

TEST(Diff, DnfVersusValueIsAlwaysARegression) {
  BenchResult golden = with_cell(1024, 1000);
  RunMeta meta;
  meta.bench = "b";
  BenchResult candidate(std::move(meta));
  Series& series = candidate.add_series(
      "s", {{"range_bytes", ColumnType::kInt, "bytes"},
            {"wcl", ColumnType::kInt, "cycles"}});
  series.add_row({Value::of_int(1024), Value::null()});
  const auto findings = diff_bench_results(golden, candidate);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("DNF"), std::string::npos);
}

TEST(Diff, ClaimFlipAndMissingSeriesAreRegressions) {
  BenchResult golden = sample_result();
  RunMeta meta;
  meta.bench = "fig7_wcl";
  BenchResult candidate(std::move(meta));
  candidate.add_claim("bounds hold", false);  // flipped
  // "nss above ss" missing entirely; series "observed_wcl" missing.
  const auto findings = diff_bench_results(golden, candidate);
  ASSERT_EQ(findings.size(), 3u);
  for (const auto& finding : findings) {
    EXPECT_EQ(finding.severity, DiffFinding::Severity::kRegression);
  }
}

TEST(Diff, SchemaChangeIsARegressionNotACellDiff) {
  BenchResult golden = with_cell(1024, 1000);
  RunMeta meta;
  meta.bench = "b";
  BenchResult candidate(std::move(meta));
  // Same names, types and cells; only the unit of "wcl" changed.
  Series& series = candidate.add_series(
      "s", {{"range_bytes", ColumnType::kInt, "bytes"},
            {"wcl", ColumnType::kInt, "ns"}});
  series.add_row({Value::of_int(1024), Value::of_int(1000)});
  const auto findings = diff_bench_results(golden, candidate);
  ASSERT_EQ(findings.size(), 1u);
  const std::string& message = findings[0].message;
  EXPECT_NE(message.find("column schema changed"), std::string::npos);
  EXPECT_NE(message.find("column 'wcl' unit changed: cycles -> ns"),
            std::string::npos)
      << message;
  EXPECT_EQ(message.find("range_bytes"), std::string::npos) << message;
}

TEST(DiffDirectories, MissingBenchFailsAndExtraBenchIsInfo) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "psllc_diff_dirs";
  std::filesystem::remove_all(root);
  const std::filesystem::path golden = root / "golden";
  const std::filesystem::path candidate = root / "candidate";
  with_cell(1024, 1000).write(golden, /*write_csv=*/false);
  {
    RunMeta meta;
    meta.bench = "extra";
    BenchResult extra(std::move(meta));
    extra.add_series("s", {{"x", ColumnType::kInt, ""}});
    extra.write(candidate, /*write_csv=*/false);
  }
  const DiffReport report = diff_directories(golden, candidate);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.num_regressions(), 1);  // bench "b" missing
  ASSERT_EQ(report.findings.size(), 2u);   // + info about "extra"
  EXPECT_EQ(report.findings[1].severity, DiffFinding::Severity::kInfo);

  // Matching tree passes.
  with_cell(1024, 1000).write(candidate, /*write_csv=*/false);
  const DiffReport clean = diff_directories(golden, candidate);
  EXPECT_EQ(clean.num_regressions(), 0);
  EXPECT_EQ(clean.benches_compared, 1);
  std::filesystem::remove_all(root);
}

TEST(DiffDirectories, UnreadableCandidateJsonIsARegression) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "psllc_diff_bad";
  std::filesystem::remove_all(root);
  with_cell(1024, 1000).write(root / "golden", /*write_csv=*/false);
  std::filesystem::create_directories(root / "candidate" / "b");
  std::ofstream(root / "candidate" / "b" / "result.json") << "{ not json";
  const DiffReport report =
      diff_directories(root / "golden", root / "candidate");
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_NE(report.findings[0].message.find("unreadable"),
            std::string::npos);
  std::filesystem::remove_all(root);
}

TEST(DiffDirectories, EmptyGoldenRootThrows) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "psllc_diff_empty";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  EXPECT_THROW(diff_directories(root, root), std::runtime_error);
  EXPECT_THROW(diff_directories(root / "nope", root), std::runtime_error);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace psllc::results
