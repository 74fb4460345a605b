#include "llc/directory.h"

#include <algorithm>

#include "common/assert.h"

namespace psllc::llc {

void InclusiveDirectory::add_sharer(LineAddr line, CoreId core) {
  PSLLC_ASSERT(core.valid(), "invalid core");
  auto& sharers = map_[line];
  PSLLC_ASSERT(std::find(sharers.begin(), sharers.end(), core) ==
                   sharers.end(),
               to_string(core) << " already shares line 0x" << std::hex
                               << line);
  sharers.push_back(core);
}

bool InclusiveDirectory::remove_sharer(LineAddr line, CoreId core) {
  auto it = map_.find(line);
  if (it == map_.end()) {
    return false;
  }
  auto& sharers = it->second;
  auto pos = std::find(sharers.begin(), sharers.end(), core);
  if (pos == sharers.end()) {
    return false;
  }
  sharers.erase(pos);
  if (sharers.empty()) {
    map_.erase(it);
  }
  return true;
}

std::vector<CoreId> InclusiveDirectory::sharers(LineAddr line) const {
  auto it = map_.find(line);
  return it == map_.end() ? std::vector<CoreId>{} : it->second;
}

bool InclusiveDirectory::is_shared_by(LineAddr line, CoreId core) const {
  auto it = map_.find(line);
  if (it == map_.end()) {
    return false;
  }
  return std::find(it->second.begin(), it->second.end(), core) !=
         it->second.end();
}

int InclusiveDirectory::sharer_count(LineAddr line) const {
  auto it = map_.find(line);
  return it == map_.end() ? 0 : static_cast<int>(it->second.size());
}

void InclusiveDirectory::clear_line(LineAddr line) { map_.erase(line); }

}  // namespace psllc::llc
