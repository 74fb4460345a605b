#include "llc/directory.h"

#include <utility>

namespace psllc::llc {

std::vector<CoreId> InclusiveDirectory::sharers(LineAddr line) const {
  std::vector<CoreId> cores;
  for (CoreMask mask = sharer_mask(line); mask != 0; mask &= mask - 1) {
    cores.push_back(lowest_core(mask));
  }
  return cores;
}

void InclusiveDirectory::grow() {
  const std::vector<LineAddr> old_lines =
      std::exchange(lines_, std::vector<LineAddr>(2 * lines_.size()));
  const std::vector<CoreMask> old_masks =
      std::exchange(masks_, std::vector<CoreMask>(2 * masks_.size()));
  --shift_;
  for (std::size_t i = 0; i < old_masks.size(); ++i) {
    if (old_masks[i] == 0) {
      continue;
    }
    const std::size_t j = probe(old_lines[i]);
    lines_[j] = old_lines[i];
    masks_[j] = old_masks[i];
  }
}

}  // namespace psllc::llc
