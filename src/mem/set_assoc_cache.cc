#include "mem/set_assoc_cache.h"

#include "common/rng.h"

namespace psllc::mem {

SetAssocCache::SetAssocCache(const CacheGeometry& geometry,
                             ReplacementKind replacement, std::uint64_t seed)
    : geometry_(geometry) {
  geometry_.validate();
  sets_.reserve(static_cast<std::size_t>(geometry_.num_sets));
  for (int s = 0; s < geometry_.num_sets; ++s) {
    sets_.emplace_back(ReplacementPolicy(
        replacement, geometry_.num_ways,
        mix_seed(seed, static_cast<std::uint64_t>(s))));
  }
}

bool SetAssocCache::is_dirty(LineAddr line) const {
  const CacheSet& set = set_for(line);
  const int way = set.find(line);
  return way >= 0 && set.way(way).dirty();
}

void SetAssocCache::mark_clean(LineAddr line) {
  CacheSet& set = set_for(line);
  const int way = set.find(line);
  if (way >= 0) {
    set.mark_clean(way);
  }
}

int SetAssocCache::valid_lines() const {
  int count = 0;
  for (const auto& set : sets_) {
    count += set.valid_count();
  }
  return count;
}

std::vector<LineAddr> SetAssocCache::resident_lines() const {
  std::vector<LineAddr> lines;
  for (const auto& set : sets_) {
    for (int w = 0; w < set.ways(); ++w) {
      if (set.way(w).valid()) {
        lines.push_back(set.way(w).line);
      }
    }
  }
  return lines;
}

const CacheSet& SetAssocCache::set_at(int index) const {
  PSLLC_ASSERT(index >= 0 && index < geometry_.num_sets,
               "set index " << index);
  return sets_[static_cast<std::size_t>(index)];
}

}  // namespace psllc::mem
