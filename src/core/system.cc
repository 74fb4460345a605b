#include "core/system.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace psllc::core {

System::System(const SystemConfig& config, llc::PartitionMap partitions)
    : System(config, llc::PartitionProgram(std::move(partitions))) {}

System::System(const SystemConfig& config, llc::PartitionProgram program)
    : config_(config),
      memory_(config_.dram.make_backend()),
      body_(config_, std::move(program), *memory_) {
  traces_.resize(static_cast<std::size_t>(config_.num_cores));
}

System::System(const ExperimentSetup& setup)
    : System(setup.config, setup.program) {}

int System::lane(CoreId core) const {
  PSLLC_ASSERT(core.valid() && core.value < config_.num_cores,
               "bad core id " << core.value);
  return core.value;
}

void System::set_trace(CoreId core, Trace trace) {
  const int l = lane(core);
  PSLLC_ASSERT(!body_.blocked(l),
               "cannot swap trace while a request is outstanding");
  Trace& owned = traces_[static_cast<std::size_t>(l)];
  owned = std::move(trace);
  body_.bind_lane(l, owned, 0);
}

void System::preload_owned_line(CoreId owner, LineAddr line,
                                bool dirty_private) {
  body_.preload_owned_line(CoreId{lane(owner)}, line, dirty_private);
}

void System::preload_llc_line(CoreId perspective, LineAddr line, bool dirty) {
  PSLLC_ASSERT(llc().partitions().partition_of(perspective) >= 0,
               "perspective core has no partition");
  body_.llc_mut().preload(line, {}, dirty);
}

void System::step_slot() {
  const SlotEvent event = body_.execute_slot(slot_index_);
  for (const auto& observer : observers_) {
    observer(event);
  }
  ++slot_index_;
}

bool System::all_done() const {
  for (int l = 0; l < config_.num_cores; ++l) {
    if (!body_.drained(l)) {
      return false;
    }
  }
  return true;
}

Cycle System::makespan() const {
  Cycle makespan = 0;
  for (int l = 0; l < config_.num_cores; ++l) {
    PSLLC_ASSERT(body_.trace_done(l),
                 to_string(CoreId{l}) << " has not finished its trace");
    makespan = std::max(makespan, body_.finish_time(l));
  }
  return makespan;
}

RunResult System::run(Cycle max_cycles) {
  while (!all_done() && now() < max_cycles) {
    step_slot();
  }
  return RunResult{all_done(), now(), slot_index_};
}

RunResult System::run_slots(std::int64_t max_slots) {
  const std::int64_t limit = slot_index_ + max_slots;
  while (!all_done() && slot_index_ < limit) {
    step_slot();
  }
  return RunResult{all_done(), now(), slot_index_};
}

void System::add_slot_observer(std::function<void(const SlotEvent&)> observer) {
  observers_.push_back(std::move(observer));
}

}  // namespace psllc::core
