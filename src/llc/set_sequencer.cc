#include "llc/set_sequencer.h"

#include "common/assert.h"

namespace psllc::llc {

SetSequencer::SetSequencer(int num_queues, int queue_depth) {
  PSLLC_ASSERT(num_queues > 0, "sequencer needs >=1 queue");
  PSLLC_ASSERT(queue_depth > 0, "sequencer queues need depth >=1");
  qlt_.resize(static_cast<std::size_t>(num_queues));
  queues_.reserve(static_cast<std::size_t>(num_queues));
  for (int q = 0; q < num_queues; ++q) {
    queues_.emplace_back(queue_depth);
  }
}

void SetSequencer::enqueue(SetKey key, CoreId core) {
  const bool added = enqueue_if_absent(key, core);
  PSLLC_ASSERT(added, to_string(core) << " already queued for this set");
}

int SetSequencer::allocate_entry(SetKey key) {
  for (std::size_t i = 0; i < qlt_.size(); ++i) {
    if (!qlt_[i].valid) {
      qlt_[i] = QltEntry{true, key, 0};
      queues_[i].clear();
      return static_cast<int>(i);
    }
  }
  PSLLC_ASSERT(false,
               "QLT full: more sets with pending requests than queues — "
               "sequencer undersized");
  return -1;
}

bool SetSequencer::has_queue(SetKey key) const { return find_entry(key) >= 0; }

bool SetSequencer::is_queued(SetKey key, CoreId core) const {
  const int entry = find_entry(key);
  return entry >= 0 && (entry_at(entry).members & core_bit(core)) != 0;
}

bool SetSequencer::is_head(SetKey key, CoreId core) const {
  const int entry = find_entry(key);
  return entry >= 0 && queue_at(entry).front() == core;
}

int SetSequencer::queue_length(SetKey key) const {
  const int entry = find_entry(key);
  return entry < 0 ? 0 : queue_at(entry).size();
}

int SetSequencer::position(SetKey key, CoreId core) const {
  const int entry = find_entry(key);
  if (entry < 0) {
    return -1;
  }
  return queue_at(entry).find_if([core](CoreId c) { return c == core; });
}

void SetSequencer::dequeue_head(SetKey key, CoreId core) {
  PSLLC_ASSERT(has_queue(key), "no queue for this set");
  PSLLC_ASSERT(is_head(key, core), to_string(core) << " is not at the head");
  release(key, core);
}

void SetSequencer::remove(SetKey key, CoreId core) {
  PSLLC_ASSERT(has_queue(key), "no queue for this set");
  PSLLC_ASSERT(is_queued(key, core),
               to_string(core) << " not queued for this set");
  release(key, core);
}

void SetSequencer::clear() {
  for (QltEntry& entry : qlt_) {
    entry = QltEntry{};
  }
}

int SetSequencer::active_queues() const {
  int count = 0;
  for (const auto& entry : qlt_) {
    count += entry.valid ? 1 : 0;
  }
  return count;
}

}  // namespace psllc::llc
