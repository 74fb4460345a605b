// Tests for the task pool (root/follow-up order, failure reporting) and
// the batched multi-sweep runner built on it: budget accounting, outcome
// ordering, fail-fast error aggregation, and equivalence of the batched
// and standalone sweep paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <latch>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/assert.h"
#include "sim/batch.h"
#include "sim/experiment.h"
#include "sim/task_pool.h"

namespace psllc::sim {
namespace {

/// Start order of the tasks of a pool run, recorded from any worker.
class StartLog {
 public:
  void add(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    names_.push_back(name);
  }
  [[nodiscard]] std::vector<std::string> names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return names_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> names_;
};

TEST(TaskPool, FollowUpsRunBeforeTheNextRoot) {
  // Root 0 queues its follow-ups only once root 1 holds the other worker,
  // and root 1 holds it until root 2 starts. So root 0's worker is the only
  // free one, and it must take every queued follow-up, nested ones too,
  // before it takes root 2.
  StartLog log;
  std::latch root1_started(1);
  std::latch root2_started(1);
  TaskPool pool(2);
  pool.run(3, [&](std::size_t root) {
    log.add("root" + std::to_string(root));
    if (root == 0) {
      root1_started.wait();
      pool.enqueue([&] {
        log.add("a");
        pool.enqueue([&] { log.add("a.x"); });
      });
      pool.enqueue([&] { log.add("b"); });
    } else if (root == 1) {
      root1_started.count_down();
      root2_started.wait();
    } else {
      root2_started.count_down();
    }
  });
  std::vector<std::string> names = log.names();
  ASSERT_EQ(names.size(), 6u);
  std::sort(names.begin(), names.begin() + 2);  // roots 0 and 1 race
  EXPECT_EQ(names, (std::vector<std::string>{"root0", "root1", "a", "b",
                                             "a.x", "root2"}));
}

TEST(TaskPool, OneWorkerRunsEverythingOnTheCallingThreadInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::string> order;
  bool all_on_caller = true;
  TaskPool pool(1);
  const auto record = [&](const std::string& name) {
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
    order.push_back(name);
  };
  pool.run(2, [&](std::size_t root) {
    const std::string r = std::to_string(root);
    record("root" + r);
    pool.enqueue([&, r] {
      record(r + ".a");
      pool.enqueue([&, r] { record(r + ".a.x"); });
    });
    pool.enqueue([&, r] { record(r + ".b"); });
  });
  EXPECT_TRUE(all_on_caller);
  EXPECT_EQ(order, (std::vector<std::string>{"root0", "0.a", "0.b", "0.a.x",
                                             "root1", "1.a", "1.b",
                                             "1.a.x"}));
}

TEST(TaskPool, OneFaultyTaskGivesTheSameExceptionAtEveryThreadCount) {
  // Every root queues two follow-ups; exactly one task throws.
  const auto failure_at = [](int workers, bool in_follow_up) {
    TaskPool pool(workers);
    try {
      pool.run(8, [&](std::size_t root) {
        if (!in_follow_up && root == 5) {
          throw ConfigError("root 5 failed");
        }
        for (int f = 0; f < 2; ++f) {
          pool.enqueue([root, f, in_follow_up] {
            if (in_follow_up && root == 3 && f == 1) {
              throw ConfigError("follow-up 3.1 failed");
            }
          });
        }
      });
    } catch (const ConfigError& e) {
      return std::string(e.what());
    }
    return std::string("no failure");
  };
  for (const bool in_follow_up : {false, true}) {
    const std::string expected =
        in_follow_up ? "follow-up 3.1 failed" : "root 5 failed";
    for (const int workers : {1, 2, 4}) {
      EXPECT_EQ(failure_at(workers, in_follow_up), expected)
          << workers << " workers";
    }
  }
}

TEST(TaskPool, NoTaskStartsOnceAFailureIsSeen) {
  // One worker: the failing follow-up stops everything queued behind it.
  {
    StartLog log;
    TaskPool pool(1);
    EXPECT_THROW(pool.run(3,
                          [&](std::size_t root) {
                            log.add("root" + std::to_string(root));
                            pool.enqueue([&] {
                              log.add("boom");
                              throw std::runtime_error("boom");
                            });
                            pool.enqueue([&] { log.add("late"); });
                          }),
                 std::runtime_error);
    EXPECT_EQ(log.names(), (std::vector<std::string>{"root0", "boom"}));
  }
  // Four workers: roots 0-3 start together; root 0 throws while the others
  // are still running. They finish, but none of the 60 other roots starts.
  std::atomic<int> started{0};
  std::latch all_started(4);
  TaskPool pool(4);
  try {
    pool.run(64, [&](std::size_t root) {
      started.fetch_add(1);
      if (root >= 4) {
        return;
      }
      all_started.arrive_and_wait();
      if (root == 0) {
        throw std::runtime_error("root 0 failed");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    });
    ADD_FAILURE() << "run succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "root 0 failed");
  }
  EXPECT_EQ(started.load(), 4);
}

TEST(Batch, RunsEveryJobAndKeepsInputOrder) {
  std::vector<int> grants(3, 0);
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(BatchJob{
        "job" + std::to_string(i), 0,
        [&grants, i](int threads) { grants[static_cast<std::size_t>(i)] = threads; }});
  }
  BatchOptions options;
  options.threads = 4;
  const BatchReport report = run_batch(std::move(jobs), options);
  ASSERT_EQ(report.jobs.size(), 3u);
  EXPECT_TRUE(report.all_ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(report.jobs[static_cast<std::size_t>(i)].name,
              "job" + std::to_string(i));
    EXPECT_EQ(report.jobs[static_cast<std::size_t>(i)].state, JobState::kOk);
    // --jobs defaults to 1, so every job gets the whole budget.
    EXPECT_EQ(grants[static_cast<std::size_t>(i)], 4);
    EXPECT_EQ(report.jobs[static_cast<std::size_t>(i)].threads, 4);
  }
}

TEST(Batch, SharedBudgetIsNeverOversubscribed) {
  constexpr int kBudget = 4;
  std::atomic<int> in_use{0};
  std::atomic<int> max_in_use{0};
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 12; ++i) {
    jobs.push_back(BatchJob{
        "job" + std::to_string(i), 2, [&](int threads) {
          const int now = in_use.fetch_add(threads) + threads;
          int seen = max_in_use.load();
          while (now > seen && !max_in_use.compare_exchange_weak(seen, now)) {
          }
          in_use.fetch_sub(threads);
        }});
  }
  BatchOptions options;
  options.threads = kBudget;
  options.max_concurrent_jobs = 8;
  const BatchReport report = run_batch(std::move(jobs), options);
  EXPECT_TRUE(report.all_ok());
  EXPECT_LE(max_in_use.load(), kBudget);
  for (const JobOutcome& job : report.jobs) {
    EXPECT_GE(job.threads, 1);
    EXPECT_LE(job.threads, 2);
  }
}

TEST(Batch, TakeEverythingJobsStillOverlapWhenJobsSlotsAllow) {
  // Two jobs that each block until the other has started: only an actual
  // overlap (fair-share grants instead of first-job-takes-all) lets the
  // batch finish. A wrong scheduler deadlocks until the rendezvous timeout
  // and fails the EXPECT below.
  std::mutex mutex;
  std::condition_variable both_started;
  int started = 0;
  bool overlapped = true;
  const auto rendezvous = [&](int) {
    std::unique_lock<std::mutex> lock(mutex);
    ++started;
    both_started.notify_all();
    overlapped =
        both_started.wait_for(lock, std::chrono::seconds(30),
                              [&] { return started == 2; }) &&
        overlapped;
  };
  std::vector<BatchJob> jobs;
  jobs.push_back(BatchJob{"left", 0, rendezvous});
  jobs.push_back(BatchJob{"right", 0, rendezvous});
  BatchOptions options;
  options.threads = 2;
  options.max_concurrent_jobs = 2;
  const BatchReport report = run_batch(std::move(jobs), options);
  EXPECT_TRUE(report.all_ok());
  EXPECT_TRUE(overlapped);
  // Fair share: neither take-everything job got the whole budget.
  EXPECT_EQ(report.jobs[0].threads, 1);
  EXPECT_EQ(report.jobs[1].threads, 1);
}

TEST(Batch, FailFastSkipsLaterJobsAndAggregatesErrors) {
  int ran_after_failure = 0;
  std::vector<BatchJob> jobs;
  jobs.push_back(BatchJob{"ok", 0, [](int) {}});
  jobs.push_back(BatchJob{"boom", 0, [](int) {
                            throw std::runtime_error("cell 3 exploded");
                          }});
  jobs.push_back(
      BatchJob{"late", 0, [&](int) { ++ran_after_failure; }});
  BatchOptions options;
  options.threads = 2;
  const BatchReport report = run_batch(std::move(jobs), options);
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.jobs[0].state, JobState::kOk);
  EXPECT_EQ(report.jobs[1].state, JobState::kFailed);
  EXPECT_EQ(report.jobs[1].error, "cell 3 exploded");
  EXPECT_EQ(report.jobs[2].state, JobState::kSkipped);
  EXPECT_EQ(ran_after_failure, 0);
  EXPECT_NE(report.error_summary().find("boom: cell 3 exploded"),
            std::string::npos);
}

TEST(Batch, KeepGoingRunsEverythingDespiteFailures) {
  std::vector<BatchJob> jobs;
  jobs.push_back(BatchJob{"boom", 0, [](int) {
                            throw std::runtime_error("first failure");
                          }});
  jobs.push_back(BatchJob{"survivor", 0, [](int) {}});
  BatchOptions options;
  options.threads = 1;
  options.fail_fast = false;
  const BatchReport report = run_batch(std::move(jobs), options);
  EXPECT_EQ(report.jobs[0].state, JobState::kFailed);
  EXPECT_EQ(report.jobs[1].state, JobState::kOk);
  EXPECT_EQ(report.count(JobState::kSkipped), 0);
}

TEST(Batch, EmitsProgressLinesForEveryJob) {
  std::mutex mutex;
  std::vector<std::string> lines;
  BatchOptions options;
  options.threads = 1;
  options.progress = [&](const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex);
    lines.push_back(line);
  };
  std::vector<BatchJob> jobs;
  jobs.push_back(BatchJob{"a", 0, [](int) {}});
  jobs.push_back(BatchJob{"b", 0, [](int) {
                            throw std::runtime_error("nope");
                          }});
  const BatchReport report = run_batch(std::move(jobs), options);
  EXPECT_FALSE(report.all_ok());
  ASSERT_EQ(lines.size(), 4u);  // run/done for a, run/FAIL for b
  EXPECT_NE(lines[0].find("run  a"), std::string::npos);
  EXPECT_NE(lines[1].find("done a"), std::string::npos);
  EXPECT_NE(lines[2].find("run  b"), std::string::npos);
  EXPECT_NE(lines[3].find("FAIL b"), std::string::npos);
}

TEST(Batch, RejectsInvalidOptionsAndJobs) {
  BatchOptions bad_jobs;
  bad_jobs.max_concurrent_jobs = 0;
  EXPECT_THROW(
      { auto r = run_batch({BatchJob{"a", 0, [](int) {}}}, bad_jobs); },
      ConfigError);
  EXPECT_THROW({ auto r = run_batch({BatchJob{"", 0, [](int) {}}}); },
               ConfigError);
  EXPECT_THROW({ auto r = run_batch({BatchJob{"a", 0, nullptr}}); },
               ConfigError);
}

// The acceptance property behind run_all: a sweep scheduled through the
// batch pool produces results identical to the same sweep run serially.
TEST(Batch, BatchedSweepMatchesSerialSweep) {
  const std::vector<SweepConfig> configs = {{"SS(1,2,2)", 2}, {"P(1,2)", 2}};
  SweepOptions serial_options;
  serial_options.address_ranges = {1024, 4096};
  serial_options.accesses_per_core = 400;
  serial_options.threads = 1;
  const SweepResult serial = run_sweep(configs, serial_options);

  results::Series batched_series(
      "empty", {{"x", results::ColumnType::kInt, ""}});
  std::vector<BatchJob> jobs;
  jobs.push_back(BatchJob{"sweep", 0, [&](int threads) {
                            SweepOptions options = serial_options;
                            options.threads = threads;
                            batched_series =
                                observed_wcl_series(run_sweep(configs, options));
                          }});
  BatchOptions batch;
  batch.threads = 3;
  const BatchReport report = run_batch(std::move(jobs), batch);
  ASSERT_TRUE(report.all_ok());
  const results::Series reference = observed_wcl_series(serial);
  EXPECT_EQ(batched_series.columns(), reference.columns());
  EXPECT_EQ(batched_series.rows(), reference.rows());
  EXPECT_EQ(batched_series.to_csv(), reference.to_csv());
}

}  // namespace
}  // namespace psllc::sim
