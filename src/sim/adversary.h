// Adversarial trace search — hostile workloads that attack the WCL bound.
//
// The paper's claim (Theorems 4.7/4.8 and the private bound) is checked
// elsewhere against benign workloads: the figure sweeps and the recorded
// corpus. This module generates workloads *designed* to break the bound and
// searches for the worst it can find:
//
//  * kConflictStride  — address strides filtered through the partition's
//    actual set mapping (modulo or xor-fold aware) so every core hammers the
//    same few partition sets — by default the partition-edge sets — with
//    more distinct lines than the partition (and the private L2) can hold,
//    maximizing conflict evictions and cross-core interference chains.
//  * kWritebackStorm  — near-100%-write sweeps over a working set larger
//    than both the private hierarchy and the partition, so every access
//    forces a dirty eviction; paired with the bounded write-queue backend
//    this drives the queue into its back-pressure path.
//  * kSlotBurst       — back-to-back request bursts separated by think time
//    sized in TDM slot widths, phased per core, so request arrivals pile up
//    against slot boundaries instead of spreading out.
//
// Every attack is an AttackSpec: a small parameter record with a stable
// content-addressed ID (fnv1a64 over the canonical key, the same scheme as
// the shard work-unit protocol). Trace generation is a pure function of
// (spec, setup, core), so a spec manifest reproduces its traces bit for bit
// on any machine.
//
// The search runs per *track* — one (attack kind x sweep config) pair.
// A track evaluates the kind's seed manifest through sim::replay(), scores
// each cell by bound slack (analytical - observed) / analytical, then
// hill-climbs: each round mutates the lowest-slack survivors into fresh
// specs and re-evaluates. Cells run in parallel but each track's mutations
// are drawn serially, round after round, so the result is bit-identical
// across thread counts and shardable at track granularity (a track mask,
// like the corpus cell mask). Cells whose slack
// drops below a threshold are *near misses*; promote_cell writes their
// core-0 trace as a .pslt file so they can be committed as regression
// traces and replayed by the corpus_runner golden gates.
#ifndef PSLLC_SIM_ADVERSARY_H_
#define PSLLC_SIM_ADVERSARY_H_

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/system_config.h"
#include "mem/dram.h"
#include "sim/experiment.h"

namespace psllc::sim {

/// The attack pattern families (>= 3 by design; see file comment).
///
///  * kRepartitionBurst — the cell's setup carries a two-mode partition
///    program (the mode switch bounces depth_factor ways at the spec's
///    trigger epoch) and the traces fire conflict bursts timed into the
///    repartition window, so requests are in flight while the LLC drains —
///    the scenario the transient WCL bound (core/wcl_analysis
///    transient_wcl_terms) must cover.
enum class AttackKind : std::uint8_t {
  kConflictStride,
  kWritebackStorm,
  kSlotBurst,
  kRepartitionBurst,
};

[[nodiscard]] constexpr const char* to_string(AttackKind kind) {
  switch (kind) {
    case AttackKind::kConflictStride: return "conflict";
    case AttackKind::kWritebackStorm: return "storm";
    case AttackKind::kSlotBurst: return "burst";
    case AttackKind::kRepartitionBurst: return "repart";
  }
  return "?";
}

/// Parses "conflict", "storm", "burst", "repart" (case-insensitive).
/// Throws ConfigError on unknown names.
[[nodiscard]] AttackKind attack_kind_from_string(std::string_view text);

/// All attack kinds, in canonical (enum) order.
[[nodiscard]] std::vector<AttackKind> all_attack_kinds();

/// One point of the attack parameter space. Fields irrelevant to `kind`
/// keep their defaults and still participate in the key, so the ID is a
/// total function of the record.
struct AttackSpec {
  AttackKind kind = AttackKind::kConflictStride;
  /// Stream seed: every generated trace draws from Rng(mix_seed(seed,
  /// core)). Mutation always redraws it, which keeps mutant IDs fresh.
  std::uint64_t seed = 1;
  int ops_per_core = 1000;
  /// Memory backend the cell runs against (storm seeds pick the bounded
  /// write queue; everything else the paper's fixed-latency model).
  mem::MemoryBackendKind backend = mem::MemoryBackendKind::kFixedLatency;
  /// kConflictStride / kSlotBurst: distinct partition sets hammered
  /// (clamped to the partition height at generation time).
  int target_sets = 1;
  /// kConflictStride: hammered lines per set = depth_factor * partition
  /// ways; kWritebackStorm: working set = depth_factor * max(private L2,
  /// partition) capacity.
  int depth_factor = 2;
  /// kConflictStride: hammer the partition-edge sets (first/last rows of
  /// the rectangle) instead of spreading the targets evenly.
  bool edge_sets = true;
  /// Probability an access is a store.
  double write_fraction = 0.5;
  /// kSlotBurst: back-to-back requests per burst.
  int burst_len = 8;
  /// kSlotBurst: think time between bursts, in TDM slot widths.
  int idle_slots = 2;
  /// kSlotBurst: per-core phase offset, in slot widths per core index.
  int phase_stride = 1;
  /// Cross-core asymmetric cell: core 0 runs this spec's pattern while the
  /// other cores rotate through the remaining families, so one cell mixes
  /// e.g. a conflict attacker with storm and burst aggressors.
  bool asymmetric = false;
  /// kRepartitionBurst: mode-switch trigger epoch, in TDM slot widths.
  int repartition_epoch_slots = 24;

  /// Canonical '|'-separated rendering of every field — the preimage of
  /// id(). Two specs are interchangeable iff their keys are equal.
  /// (Post-seed fields — asymmetric, repartition_epoch_slots — are
  /// appended only when they differ from their defaults, keeping every
  /// pre-existing spec ID and committed golden stable.)
  [[nodiscard]] std::string key() const;
  /// Stable content-addressed ID: content_id(key()), 16 hex digits (the
  /// fnv1a64 scheme of the shard work-unit protocol).
  [[nodiscard]] std::string id() const;

  /// Throws ConfigError on out-of-domain parameters.
  void validate() const;
};

/// Number of hand-designed starting specs per kind (the seed manifest).
inline constexpr int kManifestSpecs = 3;

/// The deterministic seed manifest for one attack kind: kManifestSpecs
/// starting points covering the kind's parameter corners, with stream
/// seeds derived from `base_seed` so the whole manifest is reproducible
/// from one number.
[[nodiscard]] std::vector<AttackSpec> seed_manifest(AttackKind kind,
                                                    std::uint64_t base_seed,
                                                    int ops_per_core);

/// A hill-climb neighbor: jitters the knobs relevant to spec.kind and
/// redraws the stream seed from `rng`. Deterministic given the rng state.
[[nodiscard]] AttackSpec mutate_spec(const AttackSpec& spec, Rng& rng);

/// The paper platform a (spec, config) cell runs on: make_paper_setup for
/// the notation with the spec's memory backend installed (re-validated).
[[nodiscard]] core::ExperimentSetup make_cell_setup(const AttackSpec& spec,
                                                    const SweepConfig& config);

/// Deterministic hostile trace for `core` under `spec` against `setup`.
/// Pure function of its arguments: generation is mapped-notation-aware
/// (it reads the core's partition rectangle and set mapping), so the same
/// spec yields different — but individually reproducible — traces under
/// different configs.
[[nodiscard]] core::Trace make_attack_trace(const AttackSpec& spec,
                                            const core::ExperimentSetup& setup,
                                            CoreId core);

struct AdversaryOptions {
  std::vector<AttackKind> kinds = all_attack_kinds();
  std::vector<SweepConfig> configs;
  std::uint64_t seed = 42;
  int ops_per_core = 1000;
  /// Hill-climb shape: `rounds` rounds, each mutating the `survivors`
  /// lowest-slack cells into `mutants` fresh specs apiece. Every track
  /// evaluates exactly cells_per_track() cells, so global row ordinals are
  /// computable without running other tracks (shard protocol requirement).
  int rounds = 1;
  int survivors = 1;
  int mutants = 2;
  /// Cells at or below this slack are near misses (promotion candidates).
  double near_miss_slack = 0.2;
  Cycle max_cycles = 50'000'000;
  /// Worker budget across every track's cells; 0 = hardware concurrency.
  /// Results are thread-count independent.
  int threads = 0;

  [[nodiscard]] int cells_per_track() const {
    return kManifestSpecs + rounds * survivors * mutants;
  }
  void validate() const;  ///< throws ConfigError on nonsense
};

/// One evaluated (spec, config) point.
struct AdversaryCell {
  AttackSpec spec;
  SweepConfig config;
  int round = 0;  ///< 0 = seed manifest, r >= 1 = hill-climb round r
  RunMetrics metrics;
  /// (analytical - observed) / analytical; negative means the bound was
  /// violated. 1.0 when the cell did not complete (metrics are unusable).
  double slack = 1.0;
  bool violation = false;
  bool near_miss = false;
};

/// One (kind, config) search track.
struct AdversaryTrack {
  AttackKind kind = AttackKind::kConflictStride;
  SweepConfig config;
  /// False when the track was excluded by the track mask (sharded run).
  bool ran = false;
  /// Exactly AdversaryOptions::cells_per_track() entries when ran, in
  /// evaluation order (manifest first, then round by round).
  std::vector<AdversaryCell> cells;
  double min_slack = 1.0;  ///< over completed cells
  int near_misses = 0;
  int violations = 0;
};

struct AdversaryResult {
  /// kind-major x config order (the track-mask / shard-ordinal order).
  std::vector<AdversaryTrack> tracks;
  int violations = 0;
  int near_misses = 0;
};

/// The shard-plan cell key of a track: "<kind>|<notation>@<cores>".
[[nodiscard]] std::string track_key(AttackKind kind,
                                    const SweepConfig& config);

/// Evaluates one (spec, config) cell through sim::replay() and scores it.
[[nodiscard]] AdversaryCell evaluate_cell(const AttackSpec& spec,
                                          const SweepConfig& config,
                                          const AdversaryOptions& options,
                                          int round = 0);

/// Runs the search grid. `track_mask`, when given, must hold
/// kinds.size() * configs.size() flags in track order; tracks with a false
/// flag are skipped (ran == false) — the execution half of track-level
/// sharding. All cells run on one sim::TaskPool; each track draws its
/// mutations serially from mix_seed(options.seed, fnv1a64(track_key)), so
/// results are bit-identical across thread counts and shard layouts.
/// Throws ConfigError on invalid options or when a cell fails.
[[nodiscard]] AdversaryResult run_adversary_search(
    const AdversaryOptions& options,
    const std::vector<bool>* track_mask = nullptr);

/// The trace promotion writes for a cell: the core-0 (core-under-analysis)
/// trace — regenerated, not cached, which is safe because generation is
/// pure.
[[nodiscard]] core::Trace cua_trace(const AdversaryCell& cell);

/// Writes cua_trace(cell) as "adv_<kind>_<id>.pslt" under `dir` (created
/// if missing) and returns the path. The stem is unique per spec content,
/// so a promotion directory doubles as a dedup set.
std::filesystem::path promote_cell(const AdversaryCell& cell,
                                   const std::filesystem::path& dir);

}  // namespace psllc::sim

#endif  // PSLLC_SIM_ADVERSARY_H_
