#include "trace/binary_io.h"

#include <array>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "common/assert.h"
#include "common/string_util.h"
#include "trace/format.h"
#include "trace/mapped_trace.h"

namespace psllc::trace {

bool has_binary_trace_extension(std::string_view path) {
  const std::string_view ext = kBinaryTraceExtension;
  return path.size() >= ext.size() &&
         iequals(path.substr(path.size() - ext.size()), ext);
}

int pick_addr_width_bits(const core::Trace& trace) {
  for (const core::MemOp& op : trace) {
    if ((op.addr >> 32) != 0) {
      return 64;
    }
  }
  return 32;
}

namespace {

int resolve_addr_width(const core::Trace& trace,
                       const BinaryWriteOptions& options) {
  PSLLC_CONFIG_CHECK(options.addr_width_bits == 0 ||
                         options.addr_width_bits == 32 ||
                         options.addr_width_bits == 64,
                     "binary trace: address width must be 0 (auto), 32 or "
                     "64, got "
                         << options.addr_width_bits);
  return options.addr_width_bits != 0 ? options.addr_width_bits
                                      : pick_addr_width_bits(trace);
}

/// Validates every op up front: once the header is out, an encode failure
/// would abandon a partial stream (and the file writer truncates the
/// destination on open, so it must know the trace is writable first).
void check_trace_representable(const core::Trace& trace,
                               int addr_width_bits) {
  for (const core::MemOp& op : trace) {
    check_record_representable(op, addr_width_bits);
  }
}

/// Emits header + records of a pre-validated trace.
void emit_trace_binary(std::ostream& output, const core::Trace& trace,
                       int addr_width_bits) {
  TraceHeader header;
  header.addr_width_bits = addr_width_bits;
  header.op_count = trace.size();
  std::array<unsigned char, kHeaderBytes> header_bytes{};
  encode_header(header, header_bytes.data());
  output.write(reinterpret_cast<const char*>(header_bytes.data()),
               static_cast<std::streamsize>(header_bytes.size()));

  // Records are staged through a fixed buffer so multi-GiB traces never
  // materialize a second in-memory copy.
  const std::size_t stride = record_bytes(addr_width_bits);
  constexpr std::size_t kChunkRecords = 4096;
  std::vector<unsigned char> chunk(kChunkRecords * stride);
  std::size_t filled = 0;
  for (const core::MemOp& op : trace) {
    encode_record(op, addr_width_bits, chunk.data() + filled);
    filled += stride;
    if (filled == chunk.size()) {
      output.write(reinterpret_cast<const char*>(chunk.data()),
                   static_cast<std::streamsize>(filled));
      filled = 0;
    }
  }
  if (filled > 0) {
    output.write(reinterpret_cast<const char*>(chunk.data()),
                 static_cast<std::streamsize>(filled));
  }
}

}  // namespace

void write_trace_binary(std::ostream& output, const core::Trace& trace,
                        const BinaryWriteOptions& options) {
  const int width = resolve_addr_width(trace, options);
  check_trace_representable(trace, width);
  emit_trace_binary(output, trace, width);
}

void write_trace_binary_file(const std::string& path,
                             const core::Trace& trace,
                             const BinaryWriteOptions& options) {
  // Opening truncates an existing file, so validate first: a trace the
  // format cannot express must leave the destination untouched.
  const int width = resolve_addr_width(trace, options);
  check_trace_representable(trace, width);
  std::ofstream output(path, std::ios::binary | std::ios::trunc);
  if (!output) {
    throw std::runtime_error("cannot open trace file for writing: " + path);
  }
  emit_trace_binary(output, trace, width);
  output.flush();
  if (!output) {
    throw std::runtime_error("error writing trace file: " + path);
  }
}

core::Trace read_trace_binary_file(const std::string& path) {
  return MappedTrace(path).to_trace();
}

}  // namespace psllc::trace
