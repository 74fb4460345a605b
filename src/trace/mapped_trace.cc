#include "trace/mapped_trace.h"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "common/assert.h"

#if defined(__unix__) || defined(__APPLE__)
#define PSLLC_TRACE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define PSLLC_TRACE_HAVE_MMAP 0
#endif

namespace psllc::trace {

namespace {

/// Whole-file read for the no-mmap path.
std::vector<unsigned char> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  if (end < 0) {
    throw std::runtime_error("cannot size trace file: " + path);
  }
  in.seekg(0, std::ios::beg);
  std::vector<unsigned char> bytes(static_cast<std::size_t>(end));
  if (!bytes.empty() &&
      !in.read(reinterpret_cast<char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()))) {
    throw std::runtime_error("error reading trace file: " + path);
  }
  return bytes;
}

}  // namespace

MappedTrace::MappedTrace(const std::string& path) {
#if PSLLC_TRACE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
  struct stat st {};
  if (::fstat(fd, &st) == 0 && st.st_size > 0 && S_ISREG(st.st_mode)) {
    void* map = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                       PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      data_ = static_cast<const unsigned char*>(map);
      bytes_ = static_cast<std::size_t>(st.st_size);
      mapped_ = true;
    }
  }
  ::close(fd);
#endif
  if (!mapped_) {
    fallback_ = read_all(path);
    data_ = fallback_.data();
    bytes_ = fallback_.size();
  }

  try {
    header_ = decode_header(data_, bytes_);
    record_bytes_ = record_bytes(header_.addr_width_bits);
    const std::uint64_t payload = bytes_ - kHeaderBytes;
    PSLLC_CONFIG_CHECK(
        header_.op_count <= payload / record_bytes_ &&
            payload == header_.op_count * record_bytes_,
        "binary trace: truncated or oversized record payload ("
            << payload << " bytes for " << header_.op_count << " records of "
            << record_bytes_ << " bytes): " << path);
  } catch (...) {
    unmap();
    throw;
  }
}

MappedTrace::~MappedTrace() { unmap(); }

MappedTrace::MappedTrace(MappedTrace&& other) noexcept
    : data_(other.data_),
      bytes_(other.bytes_),
      mapped_(other.mapped_),
      fallback_(std::move(other.fallback_)),
      header_(other.header_),
      record_bytes_(other.record_bytes_) {
  if (!mapped_) {
    data_ = fallback_.empty() ? nullptr : fallback_.data();
  }
  other.data_ = nullptr;
  other.bytes_ = 0;
  other.mapped_ = false;
}

MappedTrace& MappedTrace::operator=(MappedTrace&& other) noexcept {
  if (this != &other) {
    unmap();
    data_ = other.data_;
    bytes_ = other.bytes_;
    mapped_ = other.mapped_;
    fallback_ = std::move(other.fallback_);
    header_ = other.header_;
    record_bytes_ = other.record_bytes_;
    if (!mapped_) {
      data_ = fallback_.empty() ? nullptr : fallback_.data();
    }
    other.data_ = nullptr;
    other.bytes_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

void MappedTrace::unmap() noexcept {
#if PSLLC_TRACE_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(data_), bytes_);
  }
#endif
  data_ = nullptr;
  bytes_ = 0;
  mapped_ = false;
  fallback_.clear();
}

core::MemOp MappedTrace::operator[](std::uint64_t index) const {
  PSLLC_ASSERT(index < header_.op_count,
               "trace record index " << index << " out of range "
                                     << header_.op_count);
  return decode_record(data_ + kHeaderBytes + index * record_bytes_,
                       header_.addr_width_bits, index);
}

void MappedTrace::decode_batch(std::uint64_t first, std::uint64_t count,
                               Addr addr_offset, core::MemOp* out) const {
  PSLLC_ASSERT(first <= header_.op_count && count <= header_.op_count - first,
               "trace batch [" << first << ", " << first + count
                              << ") out of range " << header_.op_count);
  decode_records(data_ + kHeaderBytes + first * record_bytes_,
                 header_.addr_width_bits, first, count, addr_offset, out);
}

core::Trace MappedTrace::to_trace() const {
  core::Trace out(header_.op_count);
  decode_batch(0, header_.op_count, 0, out.data());
  return out;
}

}  // namespace psllc::trace
