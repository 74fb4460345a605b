// The one worker pool behind run_sweep, run_corpus, the adversarial search
// and run_batch. It has a fixed set of workers, the calling thread being
// one of them, and runs `roots` indexed root tasks, handed out in index
// order. A running task may enqueue follow-ups, and queued follow-ups run
// (first in, first out) before the next root: a root that produces shared
// input queues the cells that consume it. With one worker everything runs
// on the calling thread, in that order. The first task to throw stops the
// pool: running tasks finish, no task starts, and run() rethrows that
// exception, so a single faulty task is reported at every thread count.
#ifndef PSLLC_SIM_TASK_POOL_H_
#define PSLLC_SIM_TASK_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>

namespace psllc::sim {

/// `threads` when positive, else hardware concurrency (min 1): what a
/// `threads = 0` option means anywhere in sim/.
[[nodiscard]] int resolve_thread_budget(int threads);

/// Calls `task`, rethrowing what it throws as a ConfigError reading
/// "<heading>\n<name>: <what>", so a pool failure names its grid item.
void run_named(const std::string& heading, const std::string& name,
               const std::function<void()>& task);

class TaskPool {
 public:
  explicit TaskPool(int workers) : workers_(workers) {}

  /// Runs root(0) .. root(roots - 1) and every follow-up; call once.
  void run(std::size_t roots, const std::function<void(std::size_t)>& root);

  /// Queues a follow-up; call only from a task running on this pool.
  void enqueue(std::function<void()> task);

 private:
  void work(const std::function<void(std::size_t)>& root);

  int workers_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::function<void()>> follow_ups_;
  std::size_t roots_ = 0;
  std::size_t next_root_ = 0;
  int running_ = 0;
  std::exception_ptr failure_;
};

}  // namespace psllc::sim

#endif  // PSLLC_SIM_TASK_POOL_H_
