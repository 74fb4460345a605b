// Pending Request Buffer (PRB) and Pending Write-back Buffer (PWB) of one
// core's L2 cache controller, with the predictable round-robin arbitration
// between them (paper Section 3).
//
// The PRB holds at most one entry (the paper assumes one outstanding request
// per core). The PWB is a FIFO of bounded capacity holding voluntary
// (dirty-victim) and forced (back-invalidation) write-backs.
//
// Round-robin discipline: when both buffers are non-empty the controller
// alternates between them; picking from one buffer makes the other preferred
// next time. This is the "predictable arbitration such as round-robin"
// assumed by the analysis; it guarantees a request is never presented while
// older write-backs could starve it indefinitely, and yields the private-
// partition WCL bound of (2N+1)*S_W.
#ifndef PSLLC_BUS_PENDING_BUFFERS_H_
#define PSLLC_BUS_PENDING_BUFFERS_H_

#include <cstdint>
#include <optional>

#include "bus/message.h"
#include "common/fixed_queue.h"

namespace psllc::bus {

class PendingBuffers {
 public:
  /// Which buffer the round-robin pick selected.
  enum class Pick : std::uint8_t { kNone, kRequest, kWriteBack };

  explicit PendingBuffers(int pwb_capacity = 16);

  // --- PRB (single outstanding request) ---
  [[nodiscard]] bool has_request() const { return request_.has_value(); }
  [[nodiscard]] const BusMessage& request() const;
  void set_request(BusMessage message);
  void clear_request();

  // --- PWB ---
  [[nodiscard]] bool has_writeback() const { return !pwb_.empty(); }
  [[nodiscard]] int writeback_count() const { return pwb_.size(); }
  [[nodiscard]] int pwb_capacity() const { return pwb_.capacity(); }
  void push_writeback(BusMessage message);

  /// True if a write-back for `line` is queued.
  [[nodiscard]] bool has_writeback_for(LineAddr line) const;

  /// Head of the PWB (the message the next kWriteBack pick would send).
  /// Precondition: has_writeback().
  [[nodiscard]] const BusMessage& front_writeback() const {
    return pwb_.front();
  }

  /// Upgrades a queued write-back for `line` (if any) so that its arrival
  /// frees the LLC entry — used when the LLC back-invalidates a line whose
  /// voluntary write-back is already in flight. Returns true if upgraded.
  bool upgrade_writeback_to_forced(LineAddr line);

  /// Removes and returns a queued *voluntary* write-back for `line` — used
  /// when the core re-fetches a line whose dirty victim write-back has not
  /// left the PWB yet (the dirtiness folds back into the refilled copy).
  /// Freeing (forced) write-backs are never cancelled; returns nullopt when
  /// no cancellable entry exists.
  std::optional<BusMessage> cancel_writeback(LineAddr line);

  /// Round-robin choice at the start of this core's slot (`slot_start`).
  /// Only messages enqueued at or before the slot start are eligible (a
  /// message created mid-slot waits for the next slot). Returns which buffer
  /// to send from (kNone when nothing is eligible) and updates the
  /// alternation state. The caller then sends `request()` or
  /// `pop_writeback()`.
  Pick pick(Cycle slot_start);

  /// Dequeues the head write-back after it was placed on the bus.
  BusMessage pop_writeback();

 private:
  std::optional<BusMessage> request_;
  FixedQueue<BusMessage> pwb_;
  /// True when a write-back should win the next tie.
  bool prefer_writeback_ = false;
};

}  // namespace psllc::bus

#endif  // PSLLC_BUS_PENDING_BUFFERS_H_
