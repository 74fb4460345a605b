#include "sim/batch.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <sstream>

#include "common/assert.h"
#include "sim/task_pool.h"

namespace psllc::sim {

bool BatchReport::all_ok() const {
  return count(JobState::kOk) == static_cast<int>(jobs.size());
}

int BatchReport::count(JobState state) const {
  int n = 0;
  for (const JobOutcome& job : jobs) {
    n += job.state == state ? 1 : 0;
  }
  return n;
}

std::string BatchReport::error_summary() const {
  std::ostringstream oss;
  for (const JobOutcome& job : jobs) {
    if (job.state == JobState::kFailed) {
      oss << job.name << ": " << job.error << '\n';
    }
  }
  return oss.str();
}

namespace {

std::string format_seconds(double seconds) {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(2);
  oss << seconds << 's';
  return oss.str();
}

}  // namespace

BatchReport run_batch(std::vector<BatchJob> jobs,
                      const BatchOptions& options) {
  PSLLC_CONFIG_CHECK(options.threads >= 0,
                     "batch threads must be >= 0, got " << options.threads);
  PSLLC_CONFIG_CHECK(options.max_concurrent_jobs >= 1,
                     "batch needs max_concurrent_jobs >= 1, got "
                         << options.max_concurrent_jobs);
  for (const BatchJob& job : jobs) {
    PSLLC_CONFIG_CHECK(!job.name.empty(), "every batch job needs a name");
    PSLLC_CONFIG_CHECK(static_cast<bool>(job.run),
                       "batch job '" << job.name << "' has no work");
    PSLLC_CONFIG_CHECK(job.threads_wanted >= 0,
                       "batch job '" << job.name
                                     << "': threads_wanted must be >= 0");
  }

  const int total_budget = resolve_thread_budget(options.threads);
  const int total = static_cast<int>(jobs.size());

  BatchReport report;
  report.jobs.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    report.jobs[i].name = jobs[i].name;
  }
  const int workers = std::max(
      1, std::min({options.max_concurrent_jobs, total_budget, total}));

  // Thread grants and progress lines; the pool does the scheduling.
  std::mutex mutex;
  int available_threads = total_budget;
  int running_jobs = 0;
  int unstarted_jobs = total;  // neither granted nor skipped yet
  int finished_jobs = 0;
  bool any_failed = false;
  // Emitted under `mutex` so lines never interleave.
  const auto progress = [&](const std::string& line) {
    if (options.progress) {
      options.progress(line);
    }
  };

  TaskPool pool(workers);
  pool.run(jobs.size(), [&](std::size_t i) {
    int granted = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      const int queued = unstarted_jobs--;
      if (options.fail_fast && any_failed) {
        progress("[batch] skip " + jobs[i].name + " (earlier job failed)");
        return;
      }
      if (jobs[i].threads_wanted > 0) {
        granted = std::min(jobs[i].threads_wanted, available_threads);
      } else {
        // Fair share for take-everything jobs: leave budget for the other
        // concurrency slots while more jobs are queued, so --jobs N > 1
        // actually overlaps. With one slot (the default) this is the whole
        // remaining budget.
        const int slots_open = options.max_concurrent_jobs - running_jobs;
        granted =
            available_threads / std::max(1, std::min(slots_open, queued));
      }
      // Keep one thread for every other worker that may still start a job,
      // so no worker waits for budget. Fair shares never reach this cap.
      const int may_start =
          std::min(workers - 1 - running_jobs, queued - 1);
      granted = std::max(std::min(granted, available_threads - may_start), 1);
      available_threads -= granted;
      ++running_jobs;
      report.jobs[i].threads = granted;
      std::ostringstream line;
      line << "[batch] run  " << jobs[i].name << " (threads=" << granted
           << ", " << finished_jobs << "/" << total << " done)";
      progress(line.str());
    }
    // Only this task touches its outcome until the pool has finished.
    JobOutcome& outcome = report.jobs[i];
    const auto start = std::chrono::steady_clock::now();
    outcome.state = JobState::kOk;
    try {
      jobs[i].run(granted);
    } catch (const std::exception& e) {
      outcome.state = JobState::kFailed;
      outcome.error = e.what();
    } catch (...) {
      outcome.state = JobState::kFailed;
      outcome.error = "unknown exception";
    }
    outcome.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    const std::lock_guard<std::mutex> lock(mutex);
    available_threads += granted;
    --running_jobs;
    ++finished_jobs;
    any_failed = any_failed || outcome.state == JobState::kFailed;
    std::ostringstream line;
    if (outcome.state == JobState::kOk) {
      line << "[batch] done " << jobs[i].name << " in "
           << format_seconds(outcome.seconds) << " (" << finished_jobs << "/"
           << total << " done)";
    } else {
      line << "[batch] FAIL " << jobs[i].name << " after "
           << format_seconds(outcome.seconds) << ": " << outcome.error;
    }
    progress(line.str());
  });
  return report;
}

}  // namespace psllc::sim
