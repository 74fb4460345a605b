// LLC partition geometry: a partition is a rectangle of (sets x ways) inside
// the physical LLC, owned exclusively by one core (the paper's P notation)
// or shared by n cores (SS/NSS notations).
#ifndef PSLLC_LLC_PARTITION_H_
#define PSLLC_LLC_PARTITION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "mem/cache_types.h"

namespace psllc::llc {

/// How line addresses map to sets inside a partition. The paper's analysis
/// "does not rely on certain type of address mapping" (Section 2); both
/// mappings are provided and the WCL bounds hold under either (see
/// bench/ablation_mapping).
enum class SetMapping : std::uint8_t {
  kModulo,   ///< line mod num_sets (classic coloring)
  kXorFold,  ///< upper index bits XOR-folded in (spreads strided patterns)
};

[[nodiscard]] constexpr const char* to_string(SetMapping m) {
  return m == SetMapping::kModulo ? "modulo" : "xor-fold";
}

/// A set x way rectangle of the LLC.
struct PartitionSpec {
  int first_set = 0;
  int num_sets = 1;
  int first_way = 0;
  int num_ways = 1;
  SetMapping mapping = SetMapping::kModulo;

  [[nodiscard]] int capacity_lines() const { return num_sets * num_ways; }

  /// Physical set index that `line` maps to inside this partition. Every
  /// request, write-back and ack maps its line, so a power-of-two set count
  /// masks instead of dividing.
  [[nodiscard]] int map_set(LineAddr line) const {
    const auto sets = static_cast<std::uint64_t>(num_sets);
    std::uint64_t key = line;
    if (mapping == SetMapping::kXorFold) {
      // Fold the next group of index bits in; any deterministic
      // line->set function is admissible for the analysis.
      int shift = 1;
      while ((1 << shift) < num_sets) {
        ++shift;
      }
      key = line ^ (line >> shift);
    }
    const std::uint64_t index =
        (sets & (sets - 1)) == 0 ? key & (sets - 1) : key % sets;
    return first_set + static_cast<int>(index);
  }

  [[nodiscard]] bool contains_way(int way) const {
    return way >= first_way && way < first_way + num_ways;
  }

  /// The partition's ways as a mask. Precondition: validated.
  [[nodiscard]] mem::WayMask way_mask() const {
    return mem::way_range(first_way, num_ways);
  }

  [[nodiscard]] bool contains_set(int set) const {
    return set >= first_set && set < first_set + num_sets;
  }

  /// True if the two rectangles intersect.
  [[nodiscard]] bool overlaps(const PartitionSpec& other) const;

  /// Throws ConfigError if the rectangle does not fit in `geometry`.
  void validate(const mem::CacheGeometry& geometry) const;

  [[nodiscard]] std::string to_string() const;
};

/// Assignment of cores to partitions. Every core accessing the LLC must be
/// mapped to exactly one partition; distinct partitions must not overlap.
class PartitionMap {
 public:
  explicit PartitionMap(const mem::CacheGeometry& geometry);

  /// Registers a partition shared by `sharers`; returns its id.
  int add_partition(const PartitionSpec& spec, std::vector<CoreId> sharers);

  [[nodiscard]] int num_partitions() const {
    return static_cast<int>(specs_.size());
  }
  [[nodiscard]] const PartitionSpec& spec(int id) const;
  [[nodiscard]] const std::vector<CoreId>& sharers(int id) const;

  /// Partition id of `core`, or -1 when the core has none.
  [[nodiscard]] int partition_of(CoreId core) const;

  /// Number of cores sharing `core`'s partition (the paper's n).
  [[nodiscard]] int sharer_count_of(CoreId core) const;

  /// Throws ConfigError unless every core in [0, num_cores) has a partition.
  void validate_covers_cores(int num_cores) const;

  [[nodiscard]] const mem::CacheGeometry& geometry() const {
    return geometry_;
  }

 private:
  mem::CacheGeometry geometry_;
  std::vector<PartitionSpec> specs_;
  std::vector<std::vector<CoreId>> sharers_;
  std::vector<int> core_to_partition_;  // indexed by core id, -1 = none
};

/// Application class of a core's workload within one mode, in the
/// LFOC-style light/streaming/sensitive clustering: `kSensitive` workloads
/// motivate isolation, `kStreaming` ones pollute without reuse, `kLight`
/// ones fit their private caches. Labels are advisory metadata carried by
/// the mode schedule (planners cluster on them; the LLC model does not
/// read them).
enum class AppClass : std::uint8_t { kLight, kStreaming, kSensitive };

[[nodiscard]] constexpr const char* to_string(AppClass c) {
  switch (c) {
    case AppClass::kLight:
      return "light";
    case AppClass::kStreaming:
      return "streaming";
    default:
      return "sensitive";
  }
}

/// One operating mode of a time-varying partition schedule: a full
/// PartitionMap active from `start_cycle` onward, plus per-core
/// application-class labels.
struct PartitionMode {
  PartitionMap map;
  Cycle start_cycle = 0;
  std::vector<AppClass> core_class;  ///< indexed by core; may be empty
  std::string label;
};

/// A versioned partition schedule: an ordered list of modes with strictly
/// increasing trigger epochs. Mode 0 is active from cycle 0; each later
/// mode takes effect at its epoch via the LLC's drain/flush transition
/// protocol. A single-mode program is "static" and behaves exactly like a
/// bare PartitionMap.
class PartitionProgram {
 public:
  /// Static program: one mode active forever (the pre-refactor behavior).
  explicit PartitionProgram(PartitionMap map);
  explicit PartitionProgram(const mem::CacheGeometry& geometry);

  /// Appends a mode taking effect at `start_cycle`. The first added mode
  /// must start at cycle 0; later modes must be strictly later than their
  /// predecessor. All modes must share the LLC geometry.
  void add_mode(PartitionMap map, Cycle start_cycle,
                std::vector<AppClass> core_class = {},
                std::string label = {});

  [[nodiscard]] int num_modes() const {
    return static_cast<int>(modes_.size());
  }
  [[nodiscard]] const PartitionMode& mode(int index) const;

  /// The mode-0 map (the one a static program is).
  [[nodiscard]] const PartitionMap& initial() const;

  /// True when the program never repartitions.
  [[nodiscard]] bool is_static() const { return modes_.size() <= 1; }

  /// Index of the mode whose epoch has been reached by `now`.
  [[nodiscard]] int mode_index_at(Cycle now) const;

  /// Throws ConfigError unless the program is non-empty, epochs are
  /// strictly increasing from 0, geometries agree, and every mode's map
  /// covers [0, num_cores).
  void validate(int num_cores) const;

  [[nodiscard]] const mem::CacheGeometry& geometry() const;

 private:
  std::vector<PartitionMode> modes_;
  mem::CacheGeometry geometry_;
};

/// Builders for the paper's three configurations (Section 5 notation),
/// placed at set/way offset (0, 0) upward:
///  - make_private_partitions: P(s, w) — one disjoint rectangle per core.
///  - make_shared_partition: SS/NSS(s, w, n) — one rectangle shared by all
///    `sharers`.
PartitionMap make_private_partitions(const mem::CacheGeometry& geometry,
                                     int num_cores, int sets_per_core,
                                     int ways_per_core);
PartitionMap make_shared_partition(const mem::CacheGeometry& geometry,
                                   const std::vector<CoreId>& sharers,
                                   int num_sets, int num_ways);

/// Dynamic-repartitioning mode builder: the same sharer assignment with
/// every rectangle displaced by `way_bounce` ways. When any rectangle
/// would fall off the way dimension the whole map shrinks by `way_bounce`
/// ways instead (floor 1 way per partition) — either variant moves
/// `way_bounce` way-columns per partition, giving transitions a tunable
/// drain volume. `way_bounce` 0 returns an identical map (a no-op mode).
PartitionMap make_way_bounced_map(const PartitionMap& map, int way_bounce);

}  // namespace psllc::llc

#endif  // PSLLC_LLC_PARTITION_H_
