#include "bus/pending_buffers.h"

#include <utility>

#include "common/assert.h"

namespace psllc::bus {

PendingBuffers::PendingBuffers(int pwb_capacity) : pwb_(pwb_capacity) {}

const BusMessage& PendingBuffers::request() const {
  PSLLC_ASSERT(request_.has_value(), "PRB is empty");
  return *request_;
}

void PendingBuffers::set_request(BusMessage message) {
  PSLLC_ASSERT(!request_.has_value(),
               "PRB already holds a request (one outstanding request per "
               "core, paper Section 3)");
  PSLLC_ASSERT(message.kind == MessageKind::kRequest,
               "PRB accepts only requests");
  request_ = std::move(message);
}

void PendingBuffers::clear_request() {
  PSLLC_ASSERT(request_.has_value(), "clearing empty PRB");
  request_.reset();
}

void PendingBuffers::push_writeback(BusMessage message) {
  PSLLC_ASSERT(message.kind == MessageKind::kWriteBack,
               "PWB accepts only write-backs");
  PSLLC_ASSERT(!has_writeback_for(message.line),
               "duplicate write-back for line 0x" << std::hex << message.line);
  pwb_.push(std::move(message));
}

bool PendingBuffers::has_writeback_for(LineAddr line) const {
  return pwb_.find_if([line](const BusMessage& m) {
           return m.line == line;
         }) >= 0;
}

bool PendingBuffers::upgrade_writeback_to_forced(LineAddr line) {
  const int pos = pwb_.find_if(
      [line](const BusMessage& m) { return m.line == line; });
  if (pos < 0) {
    return false;
  }
  pwb_.at_mut(pos).frees_llc_entry = true;
  return true;
}

std::optional<BusMessage> PendingBuffers::cancel_writeback(LineAddr line) {
  const int pos = pwb_.find_if([line](const BusMessage& m) {
    return m.line == line && !m.frees_llc_entry;
  });
  if (pos < 0) {
    return std::nullopt;
  }
  BusMessage msg = pwb_.at(pos);
  pwb_.erase_at(pos);
  return msg;
}

PendingBuffers::Pick PendingBuffers::pick(Cycle slot_start) {
  const bool req = has_request() && request_->enqueued_at <= slot_start;
  // PWB is FIFO: only the head write-back can be sent.
  const bool wb = has_writeback() && pwb_.front().enqueued_at <= slot_start;
  if (!req && !wb) {
    return Pick::kNone;
  }
  Pick choice;
  if (req && wb) {
    choice = prefer_writeback_ ? Pick::kWriteBack : Pick::kRequest;
  } else {
    choice = req ? Pick::kRequest : Pick::kWriteBack;
  }
  // Alternate: whoever was served yields preference to the other.
  prefer_writeback_ = (choice == Pick::kRequest);
  return choice;
}

BusMessage PendingBuffers::pop_writeback() {
  PSLLC_ASSERT(has_writeback(), "PWB is empty");
  return pwb_.pop();
}

}  // namespace psllc::bus
