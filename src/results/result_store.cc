#include "results/result_store.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/assert.h"

namespace psllc::results {

std::string to_string(ColumnType type) {
  switch (type) {
    case ColumnType::kInt:
      return "int";
    case ColumnType::kReal:
      return "real";
    case ColumnType::kText:
      return "text";
  }
  return "?";
}

ColumnType column_type_from_string(const std::string& text) {
  if (text == "int") {
    return ColumnType::kInt;
  }
  if (text == "real") {
    return ColumnType::kReal;
  }
  if (text == "text") {
    return ColumnType::kText;
  }
  throw JsonParseError("unknown column type '" + text + "'");
}

// --- Value -------------------------------------------------------------------

Value Value::of_int(std::int64_t v) {
  Value value;
  value.type_ = Type::kInt;
  value.int_ = v;
  return value;
}

Value Value::of_real(double v) {
  Value value;
  value.type_ = Type::kReal;
  value.real_ = v;
  return value;
}

Value Value::of_text(std::string v) {
  Value value;
  value.type_ = Type::kText;
  value.text_ = std::move(v);
  return value;
}

Value Value::of_cycles(std::int64_t v, bool completed) {
  return completed ? of_int(v) : null();
}

std::int64_t Value::as_int() const {
  PSLLC_ASSERT(type_ == Type::kInt, "value is not an int");
  return int_;
}

double Value::as_real() const {
  if (type_ == Type::kInt) {
    return static_cast<double>(int_);
  }
  PSLLC_ASSERT(type_ == Type::kReal, "value is not a real");
  return real_;
}

const std::string& Value::as_text() const {
  PSLLC_ASSERT(type_ == Type::kText, "value is not text");
  return text_;
}

std::string Value::repr() const {
  switch (type_) {
    case Type::kNull:
      return "DNF";
    case Type::kInt:
      return std::to_string(int_);
    case Type::kReal:
      return format_real_shortest(real_);
    case Type::kText:
      return text_;
  }
  return "?";
}

Json Value::to_json() const {
  switch (type_) {
    case Type::kNull:
      return Json::make_null();
    case Type::kInt:
      return Json::make_int(int_);
    case Type::kReal:
      return Json::make_real(real_);
    case Type::kText:
      return Json::make_string(text_);
  }
  return Json::make_null();
}

Value Value::from_json(const Json& json, ColumnType type) {
  if (json.is_null()) {
    return null();
  }
  switch (type) {
    case ColumnType::kInt:
      return of_int(json.as_int());
    case ColumnType::kReal:
      return of_real(json.as_real());
    case ColumnType::kText:
      return of_text(json.as_string());
  }
  throw JsonParseError("unknown column type tag");
}

// --- Series ------------------------------------------------------------------

Series::Series(std::string name, std::vector<Column> columns)
    : name_(std::move(name)), columns_(std::move(columns)) {
  PSLLC_CONFIG_CHECK(!name_.empty(), "series needs a name");
  PSLLC_CONFIG_CHECK(!columns_.empty(),
                     "series '" << name_ << "' needs at least one column");
}

void Series::add_row(std::vector<Value> cells) {
  PSLLC_CONFIG_CHECK(cells.size() == columns_.size(),
                     "series '" << name_ << "': row has " << cells.size()
                                << " cells, schema has " << columns_.size()
                                << " columns");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (cells[c].is_null()) {
      continue;
    }
    const ColumnType type = columns_[c].type;
    const bool matches =
        (type == ColumnType::kInt && cells[c].type() == Value::Type::kInt) ||
        (type == ColumnType::kReal &&
         (cells[c].type() == Value::Type::kReal ||
          cells[c].type() == Value::Type::kInt)) ||
        (type == ColumnType::kText && cells[c].type() == Value::Type::kText);
    PSLLC_CONFIG_CHECK(matches, "series '" << name_ << "': cell " << c
                                           << " ('" << columns_[c].name
                                           << "') has the wrong type");
    // NaN/inf would serialize as null in JSON but as "nan"/"inf" in CSV,
    // so the two artifacts of one run would disagree and results_diff
    // would silently compare against null. Reject at insertion; emit
    // Value::null() ("DNF") for runs without a meaningful value.
    PSLLC_CONFIG_CHECK(cells[c].type() != Value::Type::kReal ||
                           std::isfinite(cells[c].as_real()),
                       "series '" << name_ << "' column '"
                                  << columns_[c].name
                                  << "': non-finite real value ("
                                  << cells[c].repr()
                                  << "); use Value::null() for DNF");
  }
  rows_.push_back(std::move(cells));
}

Table Series::to_table() const {
  std::vector<std::string> header;
  header.reserve(columns_.size());
  for (const Column& column : columns_) {
    header.push_back(column.name);
  }
  Table table(std::move(header));
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (row[c].type() == Value::Type::kInt &&
          columns_[c].unit == "cycles") {
        cells.push_back(format_cycles(row[c].as_int()));
      } else {
        cells.push_back(row[c].repr());
      }
    }
    table.add_row(std::move(cells));
  }
  return table;
}

std::string Series::to_csv() const {
  std::vector<std::string> header;
  header.reserve(columns_.size());
  for (const Column& column : columns_) {
    header.push_back(column.name);
  }
  Table table(std::move(header));
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const Value& value : row) {
      cells.push_back(value.repr());
    }
    table.add_row(std::move(cells));
  }
  return table.to_csv();
}

Json Series::to_json() const {
  Json json = Json::make_object();
  json.set("name", Json::make_string(name_));
  Json columns = Json::make_array();
  for (const Column& column : columns_) {
    Json c = Json::make_object();
    c.set("name", Json::make_string(column.name));
    c.set("type", Json::make_string(to_string(column.type)));
    c.set("unit", Json::make_string(column.unit));
    columns.push_back(std::move(c));
  }
  json.set("columns", std::move(columns));
  Json rows = Json::make_array();
  for (const auto& row : rows_) {
    Json cells = Json::make_array();
    for (const Value& value : row) {
      cells.push_back(value.to_json());
    }
    rows.push_back(std::move(cells));
  }
  json.set("rows", std::move(rows));
  return json;
}

Series Series::from_json(const Json& json) {
  std::vector<Column> columns;
  for (const Json& c : json.at("columns").as_array()) {
    Column column;
    column.name = c.at("name").as_string();
    column.type = column_type_from_string(c.at("type").as_string());
    column.unit = c.at("unit").as_string();
    columns.push_back(std::move(column));
  }
  Series series(json.at("name").as_string(), std::move(columns));
  for (const Json& row : json.at("rows").as_array()) {
    const auto& cells = row.as_array();
    PSLLC_CONFIG_CHECK(cells.size() == series.columns().size(),
                       "series '" << series.name() << "': JSON row has "
                                  << cells.size() << " cells");
    std::vector<Value> values;
    values.reserve(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      values.push_back(Value::from_json(cells[c], series.columns()[c].type));
    }
    series.add_row(std::move(values));
  }
  return series;
}

// --- RunMeta / BenchResult ---------------------------------------------------

void RunMeta::set_param(const std::string& key, const std::string& value) {
  for (auto& [k, v] : params) {
    if (k == key) {
      v = value;
      return;
    }
  }
  params.emplace_back(key, value);
}

const std::string* RunMeta::find_param(const std::string& key) const {
  for (const auto& [k, v] : params) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

BenchResult::BenchResult(RunMeta meta) : meta_(std::move(meta)) {
  PSLLC_CONFIG_CHECK(!meta_.bench.empty(), "bench result needs a bench name");
}

Series& BenchResult::add_series(std::string name,
                                std::vector<Column> columns) {
  add_series(Series(std::move(name), std::move(columns)));
  return series_.back();
}

void BenchResult::add_series(Series series) {
  PSLLC_CONFIG_CHECK(find_series(series.name()) == nullptr,
                     "duplicate series '" << series.name() << "'");
  series_.push_back(std::move(series));
}

const Series* BenchResult::find_series(const std::string& name) const {
  for (const Series& s : series_) {
    if (s.name() == name) {
      return &s;
    }
  }
  return nullptr;
}

void BenchResult::add_claim(const std::string& name, bool pass) {
  claims_.push_back(Claim{name, pass});
}

bool BenchResult::all_claims_pass() const {
  for (const Claim& claim : claims_) {
    if (!claim.pass) {
      return false;
    }
  }
  return true;
}

Json BenchResult::to_json() const {
  Json json = Json::make_object();
  json.set("schema_version", Json::make_int(kSchemaVersion));
  json.set("bench", Json::make_string(meta_.bench));
  json.set("title", Json::make_string(meta_.title));
  json.set("reference", Json::make_string(meta_.reference));
  Json params = Json::make_object();
  for (const auto& [key, value] : meta_.params) {
    params.set(key, Json::make_string(value));
  }
  json.set("params", std::move(params));
  Json claims = Json::make_array();
  for (const Claim& claim : claims_) {
    Json c = Json::make_object();
    c.set("name", Json::make_string(claim.name));
    c.set("pass", Json::make_bool(claim.pass));
    claims.push_back(std::move(c));
  }
  json.set("claims", std::move(claims));
  Json series = Json::make_array();
  for (const Series& s : series_) {
    series.push_back(s.to_json());
  }
  json.set("series", std::move(series));
  return json;
}

std::string BenchResult::to_json_text() const { return to_json().dump(); }

BenchResult BenchResult::from_json(const Json& json) {
  const std::int64_t version = json.at("schema_version").as_int();
  PSLLC_CONFIG_CHECK(version == kSchemaVersion,
                     "unsupported result schema version " << version);
  RunMeta meta;
  meta.bench = json.at("bench").as_string();
  meta.title = json.at("title").as_string();
  meta.reference = json.at("reference").as_string();
  for (const auto& [key, value] : json.at("params").members()) {
    meta.set_param(key, value.as_string());
  }
  BenchResult result(std::move(meta));
  for (const Json& c : json.at("claims").as_array()) {
    result.add_claim(c.at("name").as_string(), c.at("pass").as_bool());
  }
  for (const Json& s : json.at("series").as_array()) {
    result.add_series(Series::from_json(s));
  }
  return result;
}

BenchResult BenchResult::from_json_text(const std::string& text) {
  return from_json(Json::parse(text));
}

namespace {

void write_file(const std::filesystem::path& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open " + path.string() +
                             " for writing");
  }
  out << body;
  out.flush();
  if (!out) {
    throw std::runtime_error("write failed for " + path.string());
  }
}

}  // namespace

void BenchResult::write(const std::filesystem::path& root,
                        bool write_csv) const {
  const std::filesystem::path dir = root / meta_.bench;
  std::filesystem::create_directories(dir);
  write_file(dir / "result.json", to_json_text());
  if (write_csv) {
    for (const Series& s : series_) {
      write_file(dir / (s.name() + ".csv"), s.to_csv());
    }
  }
}

BenchResult BenchResult::load(const std::filesystem::path& dir) {
  const std::filesystem::path path = dir / "result.json";
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path.string());
  }
  std::ostringstream oss;
  oss << in.rdbuf();
  return from_json_text(oss.str());
}

std::filesystem::path resolve_results_root(const std::string& explicit_dir) {
  if (!explicit_dir.empty()) {
    return explicit_dir;
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env; nothing calls setenv
  if (const char* env = std::getenv("PSLLC_RESULTS_DIR");
      env != nullptr && *env != '\0') {
    return env;
  }
  return "bench_results";
}

std::string current_commit_id() {
  for (const char* var : {"PSLLC_GIT_COMMIT", "GITHUB_SHA"}) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env; nothing calls setenv
    if (const char* env = std::getenv(var); env != nullptr && *env != '\0') {
      return env;
    }
  }
  return "unknown";
}

}  // namespace psllc::results
