#include "sim/experiment.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <mutex>
#include <thread>

#include "common/assert.h"
#include "core/wcl_analysis.h"
#include "sim/replay.h"

namespace psllc::sim {

const SweepCell& SweepResult::cell(int range_index, int config_index) const {
  PSLLC_ASSERT(range_index >= 0 &&
                   range_index < static_cast<int>(ranges.size()),
               "range index " << range_index);
  PSLLC_ASSERT(config_index >= 0 &&
                   config_index < static_cast<int>(configs.size()),
               "config index " << config_index);
  return cells[static_cast<std::size_t>(range_index) * configs.size() +
               static_cast<std::size_t>(config_index)];
}

namespace {

// Computes one grid cell through the shared replay entry point. Every cell
// builds its own engine state and only reads the traces it borrows, so
// cells share no mutable state and can run on any thread.
SweepCell run_cell(const SweepConfig& config, std::int64_t range,
                   const std::vector<core::Trace>& traces,
                   const SweepOptions& options) {
  core::ExperimentSetup setup =
      core::make_paper_setup(config.notation, config.active_cores);
  setup.config.dram = options.dram;
  setup.config.validate();
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  request.options.max_cycles = options.max_cycles;
  SweepCell cell;
  cell.config = config;
  cell.range_bytes = range;
  cell.metrics = replay(request).metrics;
  return cell;
}

// The traces of one address range, one set per active-core count. Trace
// identity is (seed, core, range) only — identical addresses for every
// configuration, as the paper requires — so each set is generated by the
// range's first cell that needs it and lent to every configuration of the
// range; the range's last cell frees them all.
struct RangeTraces {
  std::mutex mutex;
  std::map<int, std::vector<core::Trace>> by_cores;  // nodes never move
  std::size_t cells_left = 0;
};

}  // namespace

SweepResult run_sweep(const std::vector<SweepConfig>& configs,
                      const SweepOptions& options) {
  PSLLC_CONFIG_CHECK(!configs.empty(), "sweep needs >=1 configuration");
  PSLLC_CONFIG_CHECK(!options.address_ranges.empty(),
                     "sweep needs >=1 address range");
  PSLLC_CONFIG_CHECK(options.threads >= 0,
                     "threads must be >= 0, got " << options.threads);
  SweepResult result;
  result.configs = configs;
  result.ranges = options.address_ranges;

  const std::size_t total = configs.size() * options.address_ranges.size();
  result.cells.resize(total);

  std::vector<RangeTraces> range_traces(options.address_ranges.size());
  for (RangeTraces& traces : range_traces) {
    traces.cells_left = configs.size();
  }

  // Cell index in row-major (range, config) order, matching
  // SweepResult::cell — each worker writes only its own slot, so the result
  // layout (and every byte of the rendered tables) is independent of thread
  // count and completion order.
  const auto compute = [&](std::size_t index) {
    const std::size_t r = index / configs.size();
    const std::size_t c = index % configs.size();
    const std::int64_t range = options.address_ranges[r];
    RangeTraces& lent = range_traces[r];
    const std::vector<core::Trace>* traces = nullptr;
    {
      const std::lock_guard<std::mutex> lock(lent.mutex);
      const int cores = configs[c].active_cores;
      auto it = lent.by_cores.find(cores);
      if (it == lent.by_cores.end()) {
        RandomWorkloadOptions workload;
        workload.range_bytes = range;
        workload.accesses = options.accesses_per_core;
        workload.write_fraction = options.write_fraction;
        it = lent.by_cores
                 .emplace(cores, make_disjoint_random_workload(
                                     cores, workload, options.seed))
                 .first;
      }
      traces = &it->second;
    }
    result.cells[index] = run_cell(configs[c], range, *traces, options);
    const std::lock_guard<std::mutex> lock(lent.mutex);
    if (--lent.cells_left == 0) {
      lent.by_cores.clear();
    }
  };

  std::size_t worker_count =
      options.threads > 0
          ? static_cast<std::size_t>(options.threads)
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  worker_count = std::min(worker_count, total);

  if (worker_count <= 1) {
    for (std::size_t index = 0; index < total; ++index) {
      compute(index);
    }
    return result;
  }

  std::atomic<std::size_t> next{0};
  // On error the sweep fails fast: unclaimed cells are skipped. Among the
  // cells that did throw, the lowest index wins, so the serial path and the
  // pool agree whenever only one cell is faulty.
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::size_t error_index = total;
  std::exception_ptr error;
  std::vector<std::thread> workers;
  workers.reserve(worker_count);
  for (std::size_t w = 0; w < worker_count; ++w) {
    workers.emplace_back([&] {
      for (std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
           index < total && !failed.load(std::memory_order_relaxed);
           index = next.fetch_add(1, std::memory_order_relaxed)) {
        try {
          compute(index);
        } catch (...) {
          failed.store(true, std::memory_order_relaxed);
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (index < error_index) {
            error_index = index;
            error = std::current_exception();
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
  return result;
}

namespace {

std::vector<std::string> header_for(const SweepResult& result,
                                    const std::string& first_column) {
  std::vector<std::string> header{first_column};
  for (const SweepConfig& config : result.configs) {
    header.push_back(config.notation);
  }
  return header;
}

}  // namespace

Table wcl_table(const SweepResult& result) {
  Table table(header_for(result, "range_bytes"));
  for (int r = 0; r < static_cast<int>(result.ranges.size()); ++r) {
    std::vector<std::string> row{std::to_string(result.ranges[
        static_cast<std::size_t>(r)])};
    for (int c = 0; c < static_cast<int>(result.configs.size()); ++c) {
      const SweepCell& cell = result.cell(r, c);
      row.push_back(cell.metrics.completed
                        ? std::to_string(cell.metrics.observed_wcl)
                        : "DNF");
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> bound_row{"analytical_WCL"};
  for (int c = 0; c < static_cast<int>(result.configs.size()); ++c) {
    bound_row.push_back(
        std::to_string(result.cell(0, c).metrics.analytical_wcl));
  }
  table.add_row(std::move(bound_row));
  return table;
}

Table exec_time_table(const SweepResult& result) {
  Table table(header_for(result, "range_bytes"));
  for (int r = 0; r < static_cast<int>(result.ranges.size()); ++r) {
    std::vector<std::string> row{std::to_string(result.ranges[
        static_cast<std::size_t>(r)])};
    for (int c = 0; c < static_cast<int>(result.configs.size()); ++c) {
      const SweepCell& cell = result.cell(r, c);
      row.push_back(cell.metrics.completed
                        ? std::to_string(cell.metrics.makespan)
                        : "DNF");
    }
    table.add_row(std::move(row));
  }
  return table;
}

namespace {

/// Columns of a grid series: range_bytes plus one cycles column per
/// configuration.
std::vector<results::Column> grid_columns(const SweepResult& result) {
  std::vector<results::Column> columns;
  columns.push_back({"range_bytes", results::ColumnType::kInt, "bytes"});
  for (const SweepConfig& config : result.configs) {
    columns.push_back({config.notation, results::ColumnType::kInt, "cycles"});
  }
  return columns;
}

results::Series grid_series(const SweepResult& result, std::string name,
                            Cycle RunMetrics::* metric) {
  results::Series series(std::move(name), grid_columns(result));
  for (int r = 0; r < static_cast<int>(result.ranges.size()); ++r) {
    std::vector<results::Value> row;
    row.push_back(results::Value::of_int(
        result.ranges[static_cast<std::size_t>(r)]));
    for (int c = 0; c < static_cast<int>(result.configs.size()); ++c) {
      const RunMetrics& m = result.cell(r, c).metrics;
      row.push_back(results::Value::of_cycles(m.*metric, m.completed));
    }
    series.add_row(std::move(row));
  }
  return series;
}

}  // namespace

results::Series observed_wcl_series(const SweepResult& result) {
  return grid_series(result, "observed_wcl", &RunMetrics::observed_wcl);
}

results::Series exec_time_series(const SweepResult& result) {
  return grid_series(result, "exec_time", &RunMetrics::makespan);
}

results::Series analytical_wcl_series(const SweepResult& result) {
  results::Series series(
      "analytical_wcl",
      {{"config", results::ColumnType::kText, ""},
       {"wcl_bound", results::ColumnType::kInt, "cycles"}});
  for (int c = 0; c < static_cast<int>(result.configs.size()); ++c) {
    series.add_row({results::Value::of_text(
                        result.configs[static_cast<std::size_t>(c)].notation),
                    results::Value::of_int(
                        result.cell(0, c).metrics.analytical_wcl)});
  }
  return series;
}

results::Series speedup_series(
    const SweepResult& result,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  results::Series series(
      "speedup",
      {{"config", results::ColumnType::kText, ""},
       {"baseline", results::ColumnType::kText, ""},
       {"mean_speedup", results::ColumnType::kReal, "ratio"}});
  for (const auto& [numerator, denominator] : pairs) {
    series.add_row({results::Value::of_text(numerator),
                    results::Value::of_text(denominator),
                    results::Value::of_real(
                        mean_speedup(result, numerator, denominator))});
  }
  return series;
}

double mean_speedup(const SweepResult& result, const std::string& numerator,
                    const std::string& denominator) {
  int num_index = -1;
  int den_index = -1;
  for (int c = 0; c < static_cast<int>(result.configs.size()); ++c) {
    if (result.configs[static_cast<std::size_t>(c)].notation == numerator) {
      num_index = c;
    }
    if (result.configs[static_cast<std::size_t>(c)].notation == denominator) {
      den_index = c;
    }
  }
  PSLLC_CONFIG_CHECK(num_index >= 0, "unknown config " << numerator);
  PSLLC_CONFIG_CHECK(den_index >= 0, "unknown config " << denominator);
  double sum = 0;
  int counted = 0;
  for (int r = 0; r < static_cast<int>(result.ranges.size()); ++r) {
    const RunMetrics& num = result.cell(r, num_index).metrics;
    const RunMetrics& den = result.cell(r, den_index).metrics;
    if (!num.completed || !den.completed || num.makespan <= 0) {
      continue;
    }
    // Speedup of `numerator` over `denominator`: t_den / t_num.
    sum += static_cast<double>(den.makespan) /
           static_cast<double>(num.makespan);
    ++counted;
  }
  PSLLC_CONFIG_CHECK(counted > 0, "no comparable completed runs");
  return sum / counted;
}

}  // namespace psllc::sim
