#include "mem/cache_set.h"

#include <utility>

namespace psllc::mem {

CacheSet::CacheSet(int ways, std::unique_ptr<ReplacementPolicy> policy)
    : lines_(static_cast<std::size_t>(ways)), policy_(std::move(policy)) {
  PSLLC_ASSERT(policy_ != nullptr, "cache set needs a replacement policy");
  PSLLC_ASSERT(policy_->ways() == ways,
               "policy sized for " << policy_->ways() << " ways, set has "
                                   << ways);
}

CacheSet::CacheSet(const CacheSet& other)
    : lines_(other.lines_), policy_(other.policy_->clone()) {}

CacheSet& CacheSet::operator=(const CacheSet& other) {
  if (this != &other) {
    lines_ = other.lines_;
    policy_ = other.policy_->clone();
  }
  return *this;
}

int CacheSet::find(LineAddr line) const {
  for (int w = 0; w < ways(); ++w) {
    const auto& meta = lines_[static_cast<std::size_t>(w)];
    if (meta.valid() && meta.line == line) {
      return w;
    }
  }
  return -1;
}

int CacheSet::find_free() const {
  for (int w = 0; w < ways(); ++w) {
    if (!lines_[static_cast<std::size_t>(w)].valid()) {
      return w;
    }
  }
  return -1;
}

const LineMeta& CacheSet::way(int w) const {
  check_way(w);
  return lines_[static_cast<std::size_t>(w)];
}

int CacheSet::valid_count() const {
  int count = 0;
  for (const auto& meta : lines_) {
    count += meta.valid() ? 1 : 0;
  }
  return count;
}

void CacheSet::insert(LineAddr line, int w, LineState state) {
  check_way(w);
  PSLLC_ASSERT(state != LineState::kInvalid, "cannot insert an invalid line");
  auto& meta = lines_[static_cast<std::size_t>(w)];
  PSLLC_ASSERT(!meta.valid(),
               "way " << w << " already holds line 0x" << std::hex
                      << meta.line);
  PSLLC_ASSERT(find(line) < 0,
               "line 0x" << std::hex << line << " already present in set");
  meta.line = line;
  meta.state = state;
  policy_->on_insert(w);
}

void CacheSet::touch(int w) {
  check_way(w);
  PSLLC_ASSERT(lines_[static_cast<std::size_t>(w)].valid(),
               "touch on invalid way " << w);
  policy_->on_access(w);
}

void CacheSet::mark_dirty(int w) {
  check_way(w);
  auto& meta = lines_[static_cast<std::size_t>(w)];
  PSLLC_ASSERT(meta.valid(), "mark_dirty on invalid way " << w);
  meta.state = LineState::kDirty;
}

void CacheSet::mark_clean(int w) {
  check_way(w);
  auto& meta = lines_[static_cast<std::size_t>(w)];
  PSLLC_ASSERT(meta.valid(), "mark_clean on invalid way " << w);
  meta.state = LineState::kClean;
}

LineMeta CacheSet::invalidate(int w) {
  check_way(w);
  auto& meta = lines_[static_cast<std::size_t>(w)];
  PSLLC_ASSERT(meta.valid(), "invalidate on invalid way " << w);
  LineMeta old = meta;
  meta = LineMeta{};
  policy_->on_invalidate(w);
  return old;
}

int CacheSet::select_victim(const std::vector<bool>& eligible) {
  PSLLC_ASSERT(static_cast<int>(eligible.size()) == ways(),
               "eligibility mask size mismatch");
  // The policy must never be offered an invalid way.
  for (int w = 0; w < ways(); ++w) {
    PSLLC_ASSERT(!eligible[static_cast<std::size_t>(w)] ||
                     lines_[static_cast<std::size_t>(w)].valid(),
                 "eligible mask includes invalid way " << w);
  }
  return policy_->select_victim(eligible);
}

int CacheSet::select_victim_any() {
  std::vector<bool> eligible(static_cast<std::size_t>(ways()));
  for (int w = 0; w < ways(); ++w) {
    eligible[static_cast<std::size_t>(w)] =
        lines_[static_cast<std::size_t>(w)].valid();
  }
  return select_victim(eligible);
}

void CacheSet::check_way(int w) const {
  PSLLC_ASSERT(w >= 0 && w < ways(),
               "way " << w << " out of range [0," << ways() << ")");
}

}  // namespace psllc::mem
