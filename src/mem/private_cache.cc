#include "mem/private_cache.h"

#include <bit>

#include "common/rng.h"

namespace psllc::mem {

CacheLevel::CacheLevel(const CacheGeometry& geometry,
                       ReplacementKind replacement, std::uint64_t seed)
    : geometry_(geometry) {
  geometry_.validate();
  num_sets_ = static_cast<std::uint64_t>(geometry_.num_sets);
  set_mask_ = num_sets_ - 1;
  pow2_sets_ = std::has_single_bit(num_sets_);
  all_ways_ = way_range(0, geometry_.num_ways);
  tags_.assign(
      static_cast<std::size_t>(geometry_.capacity_lines() + kNarrowWays - 1),
      0);
  sets_.reserve(static_cast<std::size_t>(geometry_.num_sets));
  for (int s = 0; s < geometry_.num_sets; ++s) {
    sets_.push_back(
        {0, 0,
         ReplacementPolicy(replacement, geometry_.num_ways,
                           mix_seed(seed, static_cast<std::uint64_t>(s)))});
  }
}

int CacheLevel::valid_lines() const {
  int count = 0;
  for (const SetState& s : sets_) {
    count += std::popcount(s.valid);
  }
  return count;
}

std::vector<LineAddr> CacheLevel::resident_lines() const {
  std::vector<LineAddr> lines;
  for (int set = 0; set < geometry_.num_sets; ++set) {
    for (WayMask m = state(set).valid; m != 0; m &= m - 1) {
      lines.push_back(tags_[base(set) + static_cast<std::size_t>(
                                            lowest_way(m))]);
    }
  }
  return lines;
}

void PrivateCacheConfig::validate() const {
  l1i.validate();
  l1d.validate();
  l2.validate();
  PSLLC_CONFIG_CHECK(
      l1i.line_bytes == l2.line_bytes && l1d.line_bytes == l2.line_bytes,
      "all private cache levels must share one line size (L1I="
          << l1i.line_bytes << ", L1D=" << l1d.line_bytes
          << ", L2=" << l2.line_bytes << ")");
  PSLLC_CONFIG_CHECK(l2.capacity_lines() >= l1d.capacity_lines() &&
                         l2.capacity_lines() >= l1i.capacity_lines(),
                     "inclusive L2 must be at least as large as each L1");
  PSLLC_CONFIG_CHECK(l1_hit_latency > 0 && l2_hit_latency > 0,
                     "hit latencies must be positive");
}

PrivateCacheHierarchy::PrivateCacheHierarchy(const PrivateCacheConfig& config,
                                             std::uint64_t seed)
    : config_(config),
      l1i_(config.l1i, config.replacement, mix_seed(seed, 1)),
      l1d_(config.l1d, config.replacement, mix_seed(seed, 2)),
      l2_(config.l2, config.replacement, mix_seed(seed, 3)) {
  config_.validate();
}

HitLevel PrivateCacheHierarchy::access(Addr addr, AccessType type) {
  const LineAddr line = config_.l2.line_of(addr);
  const bool write = is_write(type);
  CacheLevel& l1 = l1_for(type);
  const int l1_set = l1.set_of(line);
  const int l1_way = l1.find(l1_set, line);
  if (l1_way >= 0) {
    l1.touch(l1_set, l1_way, write);
    ++l1_hits_;
    return HitLevel::kL1;
  }
  const int l2_set = l2_.set_of(line);
  const int l2_way = l2_.find(l2_set, line);
  if (l2_way < 0) {
    ++misses_;
    return HitLevel::kMiss;
  }
  l2_.touch(l2_set, l2_way, /*write=*/false);
  ++l2_hits_;
  // Promote into L1; the L1 copy carries the store's dirtiness.
  install_l1(l1, l1_set, line, write);
  return HitLevel::kL2;
}

std::optional<Evicted> PrivateCacheHierarchy::fill(Addr addr, AccessType type,
                                                   bool write) {
  const LineAddr line = config_.l2.line_of(addr);
  const int l2_set = l2_.set_of(line);
  PSLLC_ASSERT(l2_.find(l2_set, line) < 0,
               "fill for line 0x" << std::hex << line
                                  << " already resident in L2");
  // 1. Install in L2 (clean: dirtiness lives in the L1 copy until eviction).
  std::optional<Evicted> l2_victim = l2_.install(l2_set, line, false);
  if (l2_victim) {
    // Inclusion: purge the victim from both L1s and merge dirtiness.
    if (auto v = l1i_.remove(l2_victim->line)) {
      l2_victim->dirty = l2_victim->dirty || v->dirty;
    }
    if (auto v = l1d_.remove(l2_victim->line)) {
      l2_victim->dirty = l2_victim->dirty || v->dirty;
    }
    PSLLC_AUDIT(!l1i_.contains(l2_victim->line) &&
                    !l1d_.contains(l2_victim->line),
                "L2 victim 0x" << std::hex << l2_victim->line
                               << " still resident in an L1");
  }
  // 2. Install in the requesting L1.
  CacheLevel& l1 = l1_for(type);
  const int l1_set = l1.set_of(line);
  PSLLC_ASSERT(l1.find(l1_set, line) < 0,
               "fill of already-present L1 line 0x" << std::hex << line);
  install_l1(l1, l1_set, line, write);
  return l2_victim;
}

ForcedEviction PrivateCacheHierarchy::force_evict(LineAddr line) {
  ForcedEviction result;
  // Inclusion: a line absent from L2 is in neither L1, so an L2 miss ends
  // the probe (the audit below still checks all three levels).
  if (const auto v = l2_.remove(line)) {
    result.was_present = true;
    result.was_dirty = v->dirty;
    for (CacheLevel* l1 : {&l1i_, &l1d_}) {
      if (const auto v1 = l1->remove(line)) {
        result.was_dirty = result.was_dirty || v1->dirty;
      }
    }
  }
  PSLLC_AUDIT(!l1i_.contains(line) && !l1d_.contains(line) &&
                  !l2_.contains(line),
              "forced eviction left line 0x" << std::hex << line
                                             << " resident");
  return result;
}

bool PrivateCacheHierarchy::holds_dirty(LineAddr line) const {
  return l2_.is_dirty(line) || l1d_.is_dirty(line) || l1i_.is_dirty(line);
}

void PrivateCacheHierarchy::preload(LineAddr line, bool dirty) {
  const int set = l2_.set_of(line);
  PSLLC_ASSERT(l2_.find(set, line) < 0, "preload of resident line");
  PSLLC_ASSERT(l2_.has_free_way(set),
               "preload would evict a line — target L2 set is full");
  (void)l2_.install(set, line, dirty);
}

bool PrivateCacheHierarchy::check_inclusion() const {
  for (const CacheLevel* l1 : {&l1i_, &l1d_}) {
    for (LineAddr line : l1->resident_lines()) {
      if (!l2_.contains(line)) {
        return false;
      }
    }
  }
  return true;
}

void PrivateCacheHierarchy::install_l1(CacheLevel& l1, int set, LineAddr line,
                                       bool dirty) {
  const std::optional<Evicted> l1_victim = l1.install(set, line, dirty);
  if (l1_victim && l1_victim->dirty) {
    // Inclusive L2 must hold the victim; absorb its dirtiness locally (no
    // bus traffic: L1<->L2 transfers are core-private).
    const int l2_set = l2_.set_of(l1_victim->line);
    const int l2_way = l2_.find(l2_set, l1_victim->line);
    PSLLC_ASSERT(l2_way >= 0, "inclusion violated: L1 victim 0x"
                                  << std::hex << l1_victim->line
                                  << " absent from L2");
    // Modelled behaviour: the merge is an L2 write hit, so besides marking
    // the L2 copy dirty it refreshes the line's L2 recency. Victim choices,
    // and with them every digest and golden, depend on this touch.
    l2_.touch(l2_set, l2_way, /*write=*/true);
  }
}

}  // namespace psllc::mem
