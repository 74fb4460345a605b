// Binary trace format v1 ("PSLT"), the at-scale companion of the text
// format in sim/trace_io.h. Little-endian on every host, fixed-width
// records, so a file can be mmap'd and decoded in place (trace/mapped_trace.h)
// or streamed (trace/binary_io.h).
//
// Layout:
//   header (24 bytes)
//     [0..3]   magic "PSLT"
//     [4..5]   u16 format version (= 1)
//     [6]      u8 address width in bits: 32 or 64 (selects the record size)
//     [7]      u8 reserved, must be 0
//     [8..15]  u64 op count
//     [16..23] u64 reserved, must be 0
//   records (op count x record_bytes(addr_width))
//     addr          u32 or u64 per the header's address width
//     gap_and_type  u64 = (gap << 8) | type   (type: 0=R, 1=W, 2=I)
//
// The packing bounds gap to [0, 2^56) cycles — over a year of simulated
// time at any clock — and is validated on encode, so every well-formed
// file round-trips bit-identically through core::Trace.
#ifndef PSLLC_TRACE_FORMAT_H_
#define PSLLC_TRACE_FORMAT_H_

#include <cstddef>
#include <cstdint>

#include "common/assert.h"
#include "core/mem_op.h"

namespace psllc::trace {

inline constexpr unsigned char kMagic[4] = {'P', 'S', 'L', 'T'};
inline constexpr std::uint16_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderBytes = 24;
/// Largest gap the packed record can carry.
inline constexpr Cycle kMaxGap = (std::int64_t{1} << 56) - 1;
/// Canonical file extension dispatched to this format by
/// sim::read_trace_file / sim::write_trace_file.
inline constexpr char kBinaryTraceExtension[] = ".pslt";

/// Decoded header fields (magic and reserved bytes are validated away).
struct TraceHeader {
  std::uint16_t version = kFormatVersion;
  std::int32_t addr_width_bits = 64;  ///< 32 or 64
  std::uint64_t op_count = 0;
};

/// Record size selected by the header's address width.
[[nodiscard]] constexpr std::size_t record_bytes(int addr_width_bits) {
  return static_cast<std::size_t>(addr_width_bits / 8) + 8;
}

// --- little-endian scalar codecs ---------------------------------------------

inline void store_le(std::uint64_t v, int bytes, unsigned char* out) {
  for (int i = 0; i < bytes; ++i) {
    out[i] = static_cast<unsigned char>(v >> (8 * i));
  }
}

[[nodiscard]] inline std::uint64_t load_le(const unsigned char* in,
                                           int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

// --- header codec ------------------------------------------------------------

inline void encode_header(const TraceHeader& header, unsigned char* out) {
  PSLLC_CONFIG_CHECK(
      header.addr_width_bits == 32 || header.addr_width_bits == 64,
      "binary trace: address width must be 32 or 64 bits, got "
          << header.addr_width_bits);
  for (std::size_t i = 0; i < sizeof(kMagic); ++i) {
    out[i] = kMagic[i];
  }
  store_le(header.version, 2, out + 4);
  out[6] = static_cast<unsigned char>(header.addr_width_bits);
  out[7] = 0;
  store_le(header.op_count, 8, out + 8);
  store_le(0, 8, out + 16);
}

/// Validates and decodes a header. `available` is the number of bytes the
/// caller actually has; throws ConfigError naming the defect (bad magic,
/// truncated header, unsupported version, bad address width).
[[nodiscard]] inline TraceHeader decode_header(const unsigned char* in,
                                               std::size_t available) {
  PSLLC_CONFIG_CHECK(available >= kHeaderBytes,
                     "binary trace: truncated header (" << available << " of "
                                                        << kHeaderBytes
                                                        << " bytes)");
  PSLLC_CONFIG_CHECK(in[0] == kMagic[0] && in[1] == kMagic[1] &&
                         in[2] == kMagic[2] && in[3] == kMagic[3],
                     "binary trace: bad magic (not a PSLT file)");
  TraceHeader header;
  header.version = static_cast<std::uint16_t>(load_le(in + 4, 2));
  PSLLC_CONFIG_CHECK(header.version == kFormatVersion,
                     "binary trace: unsupported format version "
                         << header.version << " (reader supports "
                         << kFormatVersion << ")");
  header.addr_width_bits = in[6];
  PSLLC_CONFIG_CHECK(
      header.addr_width_bits == 32 || header.addr_width_bits == 64,
      "binary trace: bad address width " << header.addr_width_bits
                                         << " (expected 32 or 64)");
  PSLLC_CONFIG_CHECK(in[7] == 0, "binary trace: nonzero reserved byte");
  header.op_count = load_le(in + 8, 8);
  PSLLC_CONFIG_CHECK(load_le(in + 16, 8) == 0,
                     "binary trace: nonzero reserved field");
  return header;
}

// --- record codec ------------------------------------------------------------

[[nodiscard]] constexpr std::uint8_t encode_access_type(AccessType type) {
  switch (type) {
    case AccessType::kRead:
      return 0;
    case AccessType::kWrite:
      return 1;
    case AccessType::kIfetch:
      return 2;
  }
  return 0xFF;
}

/// Throws ConfigError when `op` is not representable in the format:
/// negative or > kMaxGap gap, address wider than the chosen width, or an
/// out-of-range access type. Writers run this over the whole trace BEFORE
/// emitting any byte, so a failed write never truncates or corrupts an
/// existing file.
inline void check_record_representable(const core::MemOp& op,
                                       int addr_width_bits) {
  PSLLC_CONFIG_CHECK(encode_access_type(op.type) <= 2,
                     "binary trace: unencodable access type");
  PSLLC_CONFIG_CHECK(op.gap >= 0 && op.gap <= kMaxGap,
                     "binary trace: gap " << op.gap
                                          << " outside [0, 2^56) cycles");
  PSLLC_CONFIG_CHECK(
      addr_width_bits == 64 || (op.addr >> addr_width_bits) == 0,
      "binary trace: address 0x" << std::hex << op.addr << std::dec
                                 << " does not fit " << addr_width_bits
                                 << "-bit records");
}

/// Encodes one op (validated via check_record_representable).
inline void encode_record(const core::MemOp& op, int addr_width_bits,
                          unsigned char* out) {
  check_record_representable(op, addr_width_bits);
  const int addr_bytes = addr_width_bits / 8;
  store_le(op.addr, addr_bytes, out);
  store_le((static_cast<std::uint64_t>(op.gap) << 8) |
               encode_access_type(op.type),
           8, out + addr_bytes);
}

/// Decodes one record. Throws ConfigError on an out-of-range type byte.
[[nodiscard]] inline core::MemOp decode_record(const unsigned char* in,
                                               int addr_width_bits,
                                               std::uint64_t index) {
  const int addr_bytes = addr_width_bits / 8;
  core::MemOp op;
  op.addr = load_le(in, addr_bytes);
  const std::uint64_t meta = load_le(in + addr_bytes, 8);
  const std::uint8_t type = static_cast<std::uint8_t>(meta & 0xFF);
  PSLLC_CONFIG_CHECK(type <= 2, "binary trace: record "
                                    << index << ": bad access type byte "
                                    << static_cast<int>(type));
  op.type = type == 0   ? AccessType::kRead
            : type == 1 ? AccessType::kWrite
                        : AccessType::kIfetch;
  op.gap = static_cast<Cycle>(meta >> 8);
  return op;
}

/// Decodes `count` consecutive records of `addr_width_bits` starting at
/// `in` into `out` (which must hold `count` ops), adding `addr_offset` to
/// every address. `first_index` is the index of the first record, so a bad
/// type byte throws decode_record's ConfigError naming its record. The
/// batch form of decode_record that every multi-record reader shares.
void decode_records(const unsigned char* in, int addr_width_bits,
                    std::uint64_t first_index, std::uint64_t count,
                    Addr addr_offset, core::MemOp* out);

}  // namespace psllc::trace

#endif  // PSLLC_TRACE_FORMAT_H_
