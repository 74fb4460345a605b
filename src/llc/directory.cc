#include "llc/directory.h"

namespace psllc::llc {

std::vector<CoreId> InclusiveDirectory::sharers(LineAddr line) const {
  std::vector<CoreId> cores;
  for (CoreMask mask = sharer_mask(line); mask != 0; mask &= mask - 1) {
    cores.emplace_back(std::countr_zero(mask));
  }
  return cores;
}

}  // namespace psllc::llc
