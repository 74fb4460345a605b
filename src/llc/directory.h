// Inclusive sharer directory: for every line resident in the LLC, which
// cores hold a private copy (the paper's "l1 : c3" annotations).
//
// The directory is what makes back-invalidation possible: when the LLC
// evicts a line it must force every private copy out (inclusive property,
// paper Section 3). Workloads in the paper are data-disjoint, so lines have
// at most one sharer there; the directory nevertheless supports read
// sharing, and the system model flags writes to multi-sharer lines (a
// predictable coherence protocol is out of scope, see DESIGN.md).
#ifndef PSLLC_LLC_DIRECTORY_H_
#define PSLLC_LLC_DIRECTORY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace psllc::llc {

class InclusiveDirectory {
 public:
  /// Records that `core` now holds a private copy of `line`.
  void add_sharer(LineAddr line, CoreId core);

  /// Records that `core` no longer holds `line`. No-op if it was not
  /// recorded (e.g. double notification); returns whether it was present.
  bool remove_sharer(LineAddr line, CoreId core);

  /// All sharers of `line` (empty when none).
  [[nodiscard]] std::vector<CoreId> sharers(LineAddr line) const;

  [[nodiscard]] bool is_shared_by(LineAddr line, CoreId core) const;
  [[nodiscard]] int sharer_count(LineAddr line) const;

  /// Drops all sharer state for `line` (LLC entry invalidated).
  void clear_line(LineAddr line);

  /// Number of lines with at least one sharer.
  [[nodiscard]] int tracked_lines() const {
    return static_cast<int>(map_.size());
  }

 private:
  // Small-vector semantics: nearly all lines have 0 or 1 sharer.
  std::unordered_map<LineAddr, std::vector<CoreId>> map_;
};

}  // namespace psllc::llc

#endif  // PSLLC_LLC_DIRECTORY_H_
