#include "trace/format.h"

#include <bit>
#include <cstring>

namespace psllc::trace {

namespace {

static_assert(encode_access_type(AccessType::kRead) ==
                  static_cast<std::uint8_t>(AccessType::kRead) &&
              encode_access_type(AccessType::kWrite) ==
                  static_cast<std::uint8_t>(AccessType::kWrite) &&
              encode_access_type(AccessType::kIfetch) ==
                  static_cast<std::uint8_t>(AccessType::kIfetch),
              "the batch decoder casts type bytes straight to AccessType");

/// Little-endian load of one record field.
template <typename T>
T load_field(const unsigned char* in) {
  if constexpr (std::endian::native == std::endian::little) {
    T value;
    std::memcpy(&value, in, sizeof value);
    return value;
  } else {
    return static_cast<T>(load_le(in, sizeof(T)));
  }
}

/// One decode loop per address width. Bad type bytes are OR-accumulated
/// and reported once per batch; returns true when the batch had one.
template <typename AddrField>
bool decode_records_as(const unsigned char* in, std::uint64_t count,
                       Addr addr_offset, core::MemOp* out) {
  constexpr std::size_t kStride = sizeof(AddrField) + 8;
  bool bad = false;
  for (std::uint64_t i = 0; i < count; ++i, in += kStride) {
    const auto meta = load_field<std::uint64_t>(in + sizeof(AddrField));
    const auto type = static_cast<std::uint8_t>(meta);
    bad |= type > 2;
    out[i].addr = static_cast<Addr>(load_field<AddrField>(in)) + addr_offset;
    out[i].type = static_cast<AccessType>(type);
    out[i].gap = static_cast<Cycle>(meta >> 8);
  }
  return bad;
}

/// Re-scans a batch that held a bad type byte and throws decode_record's
/// ConfigError for its first bad record.
[[noreturn, gnu::cold, gnu::noinline]] void throw_bad_record(
    const unsigned char* in, int addr_width_bits, std::uint64_t first_index,
    std::uint64_t count) {
  const std::size_t stride = record_bytes(addr_width_bits);
  for (std::uint64_t i = 0; i < count; ++i) {
    (void)decode_record(in + i * stride, addr_width_bits, first_index + i);
  }
  PSLLC_ASSERT(false, "binary trace: batch flagged without a bad record");
}

}  // namespace

void decode_records(const unsigned char* in, int addr_width_bits,
                    std::uint64_t first_index, std::uint64_t count,
                    Addr addr_offset, core::MemOp* out) {
  const bool bad =
      addr_width_bits == 32
          ? decode_records_as<std::uint32_t>(in, count, addr_offset, out)
          : decode_records_as<std::uint64_t>(in, count, addr_offset, out);
  if (bad) {
    throw_bad_record(in, addr_width_bits, first_index, count);
  }
}

}  // namespace psllc::trace
