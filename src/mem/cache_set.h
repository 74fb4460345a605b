// One set of a set-associative cache: line metadata plus replacement state.
#ifndef PSLLC_MEM_CACHE_SET_H_
#define PSLLC_MEM_CACHE_SET_H_

#include <memory>
#include <vector>

#include "mem/cache_types.h"
#include "mem/replacement.h"

namespace psllc::mem {

class CacheSet {
 public:
  CacheSet(int ways, std::unique_ptr<ReplacementPolicy> policy);

  CacheSet(const CacheSet& other);
  CacheSet& operator=(const CacheSet& other);
  CacheSet(CacheSet&&) noexcept = default;
  CacheSet& operator=(CacheSet&&) noexcept = default;

  [[nodiscard]] int ways() const { return static_cast<int>(lines_.size()); }

  /// Way holding `line`, or -1.
  [[nodiscard]] int find(LineAddr line) const;

  /// Any invalid way, or -1 when the set is full.
  [[nodiscard]] int find_free() const;

  [[nodiscard]] const LineMeta& way(int w) const;
  [[nodiscard]] bool full() const { return find_free() < 0; }
  [[nodiscard]] int valid_count() const;

  /// Install `line` into way `w` (must be invalid) and update policy state.
  void insert(LineAddr line, int w, LineState state);

  /// Record a hit on way `w`.
  void touch(int w);

  /// Mark way `w` dirty (store hit). Precondition: valid.
  void mark_dirty(int w);

  /// Mark way `w` clean (after write-back of data). Precondition: valid.
  void mark_clean(int w);

  /// Invalidate way `w`; returns the old metadata.
  LineMeta invalidate(int w);

  /// Select a victim among valid ways satisfying `eligible` (size == ways());
  /// -1 when none. Does not modify line state.
  [[nodiscard]] int select_victim(const std::vector<bool>& eligible);

  /// Convenience: victim among all valid ways.
  [[nodiscard]] int select_victim_any();

 private:
  void check_way(int w) const;

  std::vector<LineMeta> lines_;
  std::unique_ptr<ReplacementPolicy> policy_;
};

}  // namespace psllc::mem

#endif  // PSLLC_MEM_CACHE_SET_H_
