// Per-set replacement policy state machines.
//
// The WCL analysis in the paper (Section 4.3) is explicitly agnostic of the
// replacement policy — it assumes only that the policy "can select any of
// the cache lines". We implement several real policies so the ablation bench
// can demonstrate the bounds hold across them. Victim selection takes an
// eligibility mask because LLC lines with an in-flight back-invalidation
// must not be re-selected.
#ifndef PSLLC_MEM_REPLACEMENT_H_
#define PSLLC_MEM_REPLACEMENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/cache_types.h"

namespace psllc::mem {

/// Abstract per-set replacement state. Ways are indexed 0..ways-1.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// A line was inserted into `way` (fill).
  virtual void on_insert(int way) = 0;
  /// A hit touched `way`.
  virtual void on_access(int way) = 0;
  /// `way` was invalidated.
  virtual void on_invalidate(int way) = 0;

  /// Chooses a victim among ways with eligible[way] == true. All eligible
  /// ways hold valid lines. Returns -1 when no way is eligible.
  [[nodiscard]] virtual int select_victim(
      const std::vector<bool>& eligible) = 0;

  /// Deep copy (sets own independent policy state).
  [[nodiscard]] virtual std::unique_ptr<ReplacementPolicy> clone() const = 0;

  [[nodiscard]] int ways() const { return ways_; }

 protected:
  explicit ReplacementPolicy(int ways) : ways_(ways) {
    PSLLC_ASSERT(ways > 0, "policy needs >=1 way");
  }

  int ways_;
};

/// Factory. `seed` feeds the stochastic policies (Random, NMRU) so whole
/// simulations stay deterministic.
[[nodiscard]] std::unique_ptr<ReplacementPolicy> make_replacement_policy(
    ReplacementKind kind, int ways, std::uint64_t seed = 0);

}  // namespace psllc::mem

#endif  // PSLLC_MEM_REPLACEMENT_H_
