// Messages exchanged on the shared L2<->LLC bus.
#ifndef PSLLC_BUS_MESSAGE_H_
#define PSLLC_BUS_MESSAGE_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/types.h"

namespace psllc::bus {

enum class MessageKind : std::uint8_t {
  kRequest,    ///< L2 miss: fetch a line from the LLC
  kWriteBack,  ///< write-back (voluntary dirty eviction or forced/back-inval)
};

/// One bus transfer. A core's L2 controller places exactly one message on
/// the bus at the start of its TDM slot (paper Section 3).
struct BusMessage {
  MessageKind kind = MessageKind::kRequest;
  CoreId source;
  LineAddr line = 0;

  // --- request fields ---
  AccessType access = AccessType::kRead;
  std::uint64_t request_id = 0;  ///< tracker handle, assigned by the system

  // --- write-back fields ---
  bool carries_dirty_data = false;  ///< dirty data travels with the WB
  /// True when this write-back answers an LLC back-invalidation: its arrival
  /// frees the LLC entry (the paper's "WB l" that turns an entry into "-").
  bool frees_llc_entry = false;

  Cycle enqueued_at = kNoCycle;

  [[nodiscard]] std::string to_string() const {
    std::string out = kind == MessageKind::kRequest ? "Req" : "WB";
    out += "(" + psllc::to_string(source) + ", line=0x";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llx",
                  static_cast<unsigned long long>(line));
    out += buf;
    if (kind == MessageKind::kWriteBack && frees_llc_entry) {
      out += ", frees";
    }
    out += ")";
    return out;
  }
};

}  // namespace psllc::bus

#endif  // PSLLC_BUS_MESSAGE_H_
