// Writer for the PSLT binary trace format (trace/format.h), the only
// producer of .pslt files, and the whole-file reader. Files are read
// through trace::MappedTrace.
#ifndef PSLLC_TRACE_BINARY_IO_H_
#define PSLLC_TRACE_BINARY_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "core/mem_op.h"

namespace psllc::trace {

struct BinaryWriteOptions {
  /// Record address width in bits: 32, 64, or 0 to pick automatically
  /// (32-bit records when every address fits, else 64-bit).
  // psllc-lint: allow(TRC-001: writer API option, not an on-disk layout)
  int addr_width_bits = 0;
};

/// True when `path` names a PSLT file by extension (".pslt").
[[nodiscard]] bool has_binary_trace_extension(std::string_view path);

/// Smallest supported record width that represents every address of
/// `trace` (32 or 64).
[[nodiscard]] int pick_addr_width_bits(const core::Trace& trace);

/// Serializes `trace`. Throws ConfigError when an op is unrepresentable
/// (negative gap, gap >= 2^56, address wider than a forced 32-bit width).
void write_trace_binary(std::ostream& output, const core::Trace& trace,
                        const BinaryWriteOptions& options = {});
void write_trace_binary_file(const std::string& path,
                             const core::Trace& trace,
                             const BinaryWriteOptions& options = {});

/// Decodes the whole file through MappedTrace (mmap-backed, falling back
/// to one buffered read when mapping is unavailable). Throws
/// std::runtime_error when the file cannot be opened, ConfigError when its
/// contents are malformed (bad magic/version/width, truncated header or
/// records, trailing bytes, bad type byte).
[[nodiscard]] core::Trace read_trace_binary_file(const std::string& path);

}  // namespace psllc::trace

#endif  // PSLLC_TRACE_BINARY_IO_H_
