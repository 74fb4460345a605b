#include "tracing.h"

#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {
const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return seconds_of(usage.ru_utime) + seconds_of(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Tracer::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write_jsonl(const std::string& path,
                         const std::string& header) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  out << header << '\n';
  for (const Span& s : spans()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"cell\":" << s.cell << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"work\":" << s.work << "}\n";
  }
  if (!out) {
    throw std::runtime_error("short write to trace file " + path);
  }
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::int64_t cell,
                       std::uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    span_.id = tracer_->next_id();
    span_.parent = parent;
    span_.name = name;
    span_.cell = cell;
    span_.start_ns = now_ns();
  }
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) {
    span_.end_ns = now_ns();
    try {
      tracer_->record(span_);
    } catch (...) {
      tracer_->note_dropped();
    }
  }
}

}  // namespace perfbench
