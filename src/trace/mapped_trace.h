// Read-only view of a binary (.pslt) trace file. The file is mmap'd
// read-only and validated on open; records are decoded in place, one at a
// time (operator[]) or in batches (decode_batch). Replay lanes read
// core::Trace only, so loading a file for replay is to_trace(), one
// decode pass into one heap image (trace::read_trace_binary_file). When
// mmap is unavailable (non-POSIX host, or an mmap failure on a regular
// file) the file is read into an owned buffer instead — same interface,
// one copy. Non-seekable sources (pipes, FIFOs) are not supported.
#ifndef PSLLC_TRACE_MAPPED_TRACE_H_
#define PSLLC_TRACE_MAPPED_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/mem_op.h"
#include "trace/format.h"

namespace psllc::trace {

class MappedTrace {
 public:
  /// Opens and validates `path`. Throws std::runtime_error when the file
  /// cannot be opened and ConfigError when its contents are malformed
  /// (bad magic, version, truncation).
  explicit MappedTrace(const std::string& path);
  ~MappedTrace();

  MappedTrace(MappedTrace&& other) noexcept;
  MappedTrace& operator=(MappedTrace&& other) noexcept;
  MappedTrace(const MappedTrace&) = delete;
  MappedTrace& operator=(const MappedTrace&) = delete;

  [[nodiscard]] const TraceHeader& header() const { return header_; }
  /// Number of records.
  [[nodiscard]] std::uint64_t size() const { return header_.op_count; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// True when the view is backed by mmap (false: owned-buffer fallback).
  [[nodiscard]] bool mapped() const { return mapped_; }

  /// Decodes record `index` straight from the mapped bytes.
  [[nodiscard]] core::MemOp operator[](std::uint64_t index) const;

  /// Decodes `count` records starting at `first` into `out` (which must
  /// hold `count` ops), adding `addr_offset` to every address. One call per
  /// batch amortizes the per-record call overhead while the bytes stay on
  /// the mapped view; to_trace() decodes through it. Throws ConfigError
  /// naming the first record with a bad type byte.
  void decode_batch(std::uint64_t first, std::uint64_t count,
                    Addr addr_offset, core::MemOp* out) const;

  /// Materializes the whole file as a core::Trace.
  [[nodiscard]] core::Trace to_trace() const;

 private:
  void unmap() noexcept;

  const unsigned char* data_ = nullptr;  ///< full file, header included
  std::size_t bytes_ = 0;
  bool mapped_ = false;
  std::vector<unsigned char> fallback_;  ///< owns the bytes when !mapped_
  TraceHeader header_;
  std::size_t record_bytes_ = 0;
};

}  // namespace psllc::trace

#endif  // PSLLC_TRACE_MAPPED_TRACE_H_
