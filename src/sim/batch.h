// Batched job runner: many independent jobs (figure panels, ablations) as
// the roots of one sim::TaskPool of min(max_concurrent_jobs, budget, jobs)
// workers, behind ONE shared worker-thread budget. Each job forwards the
// threads it was granted into SweepOptions::threads, so the batch never
// oversubscribes the machine. Results are bit-identical to running each
// job alone because run_sweep output is independent of its thread count.
#ifndef PSLLC_SIM_BATCH_H_
#define PSLLC_SIM_BATCH_H_

#include <functional>
#include <string>
#include <vector>

namespace psllc::sim {

struct BatchJob {
  std::string name;
  /// Threads this job can usefully consume; 0 = a fair share of the
  /// budget (the whole remaining budget when max_concurrent_jobs is 1,
  /// budget/slots while other jobs are queued otherwise). The grant is
  /// clamped to the remaining budget less one per other worker that may
  /// still start a job (no worker waits for budget), and is always >= 1.
  int threads_wanted = 0;
  /// The work. Throws to signal failure; the exception message is captured
  /// in the job's outcome.
  std::function<void(int threads_granted)> run;
};

enum class JobState {
  kOk,
  kFailed,   ///< run() threw
  kSkipped,  ///< not started because an earlier job failed (fail-fast)
};

struct JobOutcome {
  std::string name;
  JobState state = JobState::kSkipped;
  std::string error;   ///< exception message when state == kFailed
  int threads = 0;     ///< granted budget (0 when skipped)
  double seconds = 0;  ///< wall-clock run time
};

struct BatchOptions {
  /// Total worker-thread budget shared by all concurrently running jobs.
  /// 0 = resolve_thread_budget's hardware concurrency.
  int threads = 0;
  /// Jobs running at once. 1 (default) keeps stdout ordered per job and
  /// hands each job the full budget; raising it trades ordering for
  /// overlap between jobs with poor internal scaling.
  int max_concurrent_jobs = 1;
  /// Stop scheduling new jobs after the first failure. Jobs already
  /// running are allowed to finish; unstarted jobs report kSkipped.
  bool fail_fast = true;
  /// Per-event progress lines ("[batch] 3/12 fig8a: done in 2.1s");
  /// null disables progress output.
  std::function<void(const std::string& line)> progress;
};

struct BatchReport {
  std::vector<JobOutcome> jobs;  ///< same order as the input jobs

  [[nodiscard]] bool all_ok() const;
  [[nodiscard]] int count(JobState state) const;
  /// Aggregated error text: one line per failed job (empty when all_ok).
  [[nodiscard]] std::string error_summary() const;
};

/// Runs `jobs` under the shared budget. Never throws on job failure —
/// inspect the report; throws ConfigError on invalid options.
[[nodiscard]] BatchReport run_batch(std::vector<BatchJob> jobs,
                                    const BatchOptions& options = {});

}  // namespace psllc::sim

#endif  // PSLLC_SIM_BATCH_H_
