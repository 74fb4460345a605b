// In-memory span recorder for the traced benchmark run. Spans are taken
// only in the benchmark's own code, around calls into the library's public
// functions; every span carries the id of the cell it belongs to and the
// span that caused it, and the whole set is written out once at the end.
#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since process start.
[[nodiscard]] std::int64_t now_ns();
/// User + system CPU seconds of the whole process (all threads).
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set of the process in MiB.
[[nodiscard]] double peak_rss_mb();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  const char* name = "";     ///< static string, e.g. "sim.replay"
  std::int64_t cell = -1;    ///< cell id within the pass, -1 = none
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t work = 0;  ///< ops / accesses / calls the span covered

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  [[nodiscard]] std::uint64_t next_id() { return ++last_id_; }
  void record(const Span& span);
  [[nodiscard]] std::vector<Span> spans() const;
  /// Spans lost because recording them threw (out of memory).
  void note_dropped() { ++dropped_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Writes one JSON object per span (preceded by `header`, a JSON object
  /// line) to `path`. Throws std::runtime_error when the file cannot be
  /// written.
  void write_jsonl(const std::string& path, const std::string& header) const;

 private:
  std::atomic<std::uint64_t> last_id_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Records a span over its own lifetime; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int64_t cell,
             std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_work(std::int64_t work) { span_.work = work; }
  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
