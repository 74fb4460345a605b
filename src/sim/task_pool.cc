#include "sim/task_pool.h"

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.h"

namespace psllc::sim {

int resolve_thread_budget(int threads) {
  return threads > 0
             ? threads
             : std::max(1,
                        static_cast<int>(std::thread::hardware_concurrency()));
}

void run_named(const std::string& heading, const std::string& name,
               const std::function<void()>& task) {
  try {
    task();
  } catch (const std::exception& e) {
    throw ConfigError(heading + "\n" + name + ": " + e.what());
  } catch (...) {
    throw ConfigError(heading + "\n" + name + ": unknown exception");
  }
}

void TaskPool::run(std::size_t roots,
                   const std::function<void(std::size_t)>& root) {
  PSLLC_ASSERT(workers_ >= 1, "a task pool needs >= 1 worker");
  roots_ = roots;
  {
    std::vector<std::jthread> threads;
    for (int i = 1; i < workers_; ++i) {
      threads.emplace_back([this, &root] { work(root); });
    }
    work(root);
  }
  if (failure_) {
    std::rethrow_exception(failure_);
  }
}

void TaskPool::enqueue(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    follow_ups_.push_back(std::move(task));
  }
  ready_.notify_one();
}

void TaskPool::work(const std::function<void(std::size_t)>& root) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // A running task may still enqueue follow-ups, so an idle worker leaves
    // only once the last running task has finished.
    ready_.wait(lock, [&] {
      return failure_ || !follow_ups_.empty() || next_root_ < roots_ ||
             running_ == 0;
    });
    if (failure_ || (follow_ups_.empty() && next_root_ == roots_)) {
      return;
    }
    std::function<void()> task;
    if (follow_ups_.empty()) {
      task = [&root, index = next_root_++] { root(index); };
    } else {
      task = std::move(follow_ups_.front());
      follow_ups_.pop_front();
    }
    ++running_;
    lock.unlock();
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    task = nullptr;  // releases what it captured (a trace set) unlocked
    lock.lock();
    --running_;
    if (!failure_) {
      failure_ = error;
    }
    if (failure_ || running_ == 0) {
      ready_.notify_all();
    }
  }
}

}  // namespace psllc::sim
