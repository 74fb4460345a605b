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
  queue_in_use_.assign(static_cast<std::size_t>(num_queues), false);
}

void SetSequencer::enqueue(SetKey key, CoreId core) {
  PSLLC_ASSERT(key.valid(), "invalid set key");
  PSLLC_ASSERT(core.valid(), "invalid core");
  int entry = find_entry(key);
  if (entry < 0) {
    entry = allocate_entry(key);
  }
  auto& queue =
      queues_[static_cast<std::size_t>(qlt_[static_cast<std::size_t>(entry)]
                                           .queue_index)];
  PSLLC_ASSERT(queue.find_if([core](CoreId c) { return c == core; }) < 0,
               to_string(core) << " already queued for this set");
  queue.push(core);
}

int SetSequencer::find_entry(SetKey key) const {
  for (std::size_t i = 0; i < qlt_.size(); ++i) {
    if (qlt_[i].valid && qlt_[i].key == key) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int SetSequencer::allocate_entry(SetKey key) {
  int entry = -1;
  for (std::size_t i = 0; i < qlt_.size(); ++i) {
    if (!qlt_[i].valid) {
      entry = static_cast<int>(i);
      break;
    }
  }
  PSLLC_ASSERT(entry >= 0,
               "QLT full: more sets with pending requests than queues — "
               "sequencer undersized");
  int queue_index = -1;
  for (std::size_t q = 0; q < queue_in_use_.size(); ++q) {
    if (!queue_in_use_[q]) {
      queue_index = static_cast<int>(q);
      break;
    }
  }
  PSLLC_ASSERT(queue_index >= 0, "no free sequencer queue");
  qlt_[static_cast<std::size_t>(entry)] = QltEntry{true, key, queue_index};
  queue_in_use_[static_cast<std::size_t>(queue_index)] = true;
  queues_[static_cast<std::size_t>(queue_index)].clear();
  return entry;
}

void SetSequencer::release_entry(int entry_index) {
  auto& entry = qlt_[static_cast<std::size_t>(entry_index)];
  PSLLC_ASSERT(entry.valid, "releasing invalid QLT entry");
  queue_in_use_[static_cast<std::size_t>(entry.queue_index)] = false;
  entry = QltEntry{};
}

bool SetSequencer::has_queue(SetKey key) const { return find_entry(key) >= 0; }

bool SetSequencer::is_queued(SetKey key, CoreId core) const {
  return position(key, core) >= 0;
}

bool SetSequencer::is_head(SetKey key, CoreId core) const {
  return position(key, core) == 0;
}

int SetSequencer::queue_length(SetKey key) const {
  const int entry = find_entry(key);
  if (entry < 0) {
    return 0;
  }
  return queues_[static_cast<std::size_t>(
                     qlt_[static_cast<std::size_t>(entry)].queue_index)]
      .size();
}

int SetSequencer::position(SetKey key, CoreId core) const {
  const int entry = find_entry(key);
  if (entry < 0) {
    return -1;
  }
  const auto& queue =
      queues_[static_cast<std::size_t>(qlt_[static_cast<std::size_t>(entry)]
                                           .queue_index)];
  return queue.find_if([core](CoreId c) { return c == core; });
}

void SetSequencer::dequeue_head(SetKey key, CoreId core) {
  const int entry = find_entry(key);
  PSLLC_ASSERT(entry >= 0, "no queue for this set");
  auto& queue =
      queues_[static_cast<std::size_t>(qlt_[static_cast<std::size_t>(entry)]
                                           .queue_index)];
  PSLLC_ASSERT(!queue.empty() && queue.front() == core,
               to_string(core) << " is not at the head");
  queue.pop();
  if (queue.empty()) {
    release_entry(entry);
  }
}

void SetSequencer::remove(SetKey key, CoreId core) {
  const int entry = find_entry(key);
  PSLLC_ASSERT(entry >= 0, "no queue for this set");
  auto& queue =
      queues_[static_cast<std::size_t>(qlt_[static_cast<std::size_t>(entry)]
                                           .queue_index)];
  const int pos = queue.find_if([core](CoreId c) { return c == core; });
  PSLLC_ASSERT(pos >= 0, to_string(core) << " not queued for this set");
  queue.erase_at(pos);
  if (queue.empty()) {
    release_entry(entry);
  }
}

void SetSequencer::clear() {
  for (std::size_t i = 0; i < qlt_.size(); ++i) {
    if (qlt_[i].valid) {
      release_entry(static_cast<int>(i));
    }
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
