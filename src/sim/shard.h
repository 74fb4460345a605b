// Work-unit protocol for sharding a sweep/corpus grid across processes
// (and machines). A ShardPlan deterministically enumerates the grid into
// WorkUnits with stable, content-addressed IDs: every shard of a run
// recomputes the identical plan from the same flags, so a crashed shard
// can be re-run in isolation and re-merged. The plan serializes as a JSON
// manifest describing the grid and the shard assignment; partial result
// stores reference it (by content hash) through shard.* provenance params
// in RunMeta, and tools/results_merge joins them back into one artifact
// bit-identical to an unsharded run (see src/results/merge.h).
#ifndef PSLLC_SIM_SHARD_H_
#define PSLLC_SIM_SHARD_H_

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "results/json.h"

namespace psllc::sim {

/// FNV-1a 64-bit hash — the content address of a work unit. Stable across
/// platforms and runs (pure function of the bytes).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text);

/// 16-hex-digit rendering of fnv1a64, the wire form of unit IDs.
[[nodiscard]] std::string content_id(std::string_view key);

/// Which shard of how many this process is. count == 1 with index == 0 is
/// a valid single-shard "sharded" run (useful for protocol tests).
struct ShardSpec {
  int index = 0;
  int count = 1;

  void validate() const;  ///< throws ConfigError unless 0 <= index < count
  /// Round-robin ownership of plan ordinal `ordinal`.
  [[nodiscard]] bool owns(std::size_t ordinal) const;
};

/// One schedulable cell of the grid. `cell` is the human-readable cell key
/// within the bench ("chase_hot|SS(32,2,2)|2"); empty for whole-bench units
/// (run_all shards at bench granularity).
struct WorkUnit {
  std::string id;     ///< content_id over grid name, params, bench, cell
  std::string bench;  ///< result-store directory the unit contributes to
  std::string cell;

  /// "bench" or "bench:cell" — the name used in error messages.
  [[nodiscard]] std::string label() const;
};

/// Deterministic enumeration of a grid into work units plus the shard
/// assignment (unit ordinal i belongs to shard i % shard_count). Build it
/// by adding units in the serial execution/emission order of the grid —
/// row ordinals of merged series follow that order.
class ShardPlan {
 public:
  /// `grid` names the planner ("run_all", "corpus_runner"); `params` are
  /// the grid parameters that determine unit content (profile, corpus,
  /// replay, ...) and are folded into every unit ID.
  ShardPlan(std::string grid,
            std::vector<std::pair<std::string, std::string>> params,
            int shard_count);

  /// Appends the unit for (bench, cell) and returns its ordinal. Throws
  /// ConfigError on a duplicate cell (identical content ID).
  std::size_t add_unit(const std::string& bench, const std::string& cell);

  [[nodiscard]] const std::string& grid() const { return grid_; }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  params() const {
    return params_;
  }
  [[nodiscard]] int shard_count() const { return shard_count_; }
  [[nodiscard]] const std::vector<WorkUnit>& units() const { return units_; }
  [[nodiscard]] int shard_of(std::size_t ordinal) const;

  /// Ordinals owned by `spec`, in plan order. Throws ConfigError when
  /// spec.count disagrees with the plan's shard_count.
  [[nodiscard]] std::vector<std::size_t> owned_ordinals(
      const ShardSpec& spec) const;

  /// Content hash binding partial stores to this manifest: folds the grid
  /// name, params, shard count and every unit ID.
  [[nodiscard]] std::string content_hash() const;

  [[nodiscard]] results::Json to_json() const;
  [[nodiscard]] static ShardPlan from_json(const results::Json& json);

  /// Atomic manifest write (temp file + rename), so concurrent shards
  /// re-emitting the identical manifest never expose a torn file.
  void write(const std::filesystem::path& path) const;
  [[nodiscard]] static ShardPlan load(const std::filesystem::path& path);

  /// The --manifest contract of sharded drivers: if `path` exists, load it
  /// and require the same content hash (a crashed shard re-run against a
  /// stale manifest must refuse, not silently recompute); otherwise write
  /// the manifest there.
  void write_or_verify(const std::filesystem::path& path) const;

 private:
  std::string grid_;
  std::vector<std::pair<std::string, std::string>> params_;
  int shard_count_ = 1;
  std::string key_prefix_;  ///< "grid|k=v|...|" folded into unit IDs
  std::vector<WorkUnit> units_;
  std::unordered_set<std::string> unit_ids_;  ///< duplicate detection
};

}  // namespace psllc::sim

#endif  // PSLLC_SIM_SHARD_H_
