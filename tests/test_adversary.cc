// Tests for the adversarial trace search: spec identity, manifest and
// trace-generation determinism, the attack-pattern character (conflict
// focus, storm working sets, burst phasing), search invariance across
// thread counts and shard layouts, and the near-miss promotion round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "sim/adversary.h"
#include "sim/corpus.h"
#include "sim/replay.h"

namespace psllc::sim {
namespace {

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Small but non-trivial search: 2 kinds x 2 configs, one climb round.
AdversaryOptions small_options() {
  AdversaryOptions options;
  options.kinds = {AttackKind::kConflictStride, AttackKind::kSlotBurst};
  options.configs = {{"SS(32,2,2)", 2}, {"P(8,2)", 2}};
  options.seed = 7;
  options.ops_per_core = 200;
  options.rounds = 1;
  options.survivors = 1;
  options.mutants = 2;
  return options;
}

void expect_traces_equal(const core::Trace& a, const core::Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].addr, b[i].addr) << "op " << i;
    EXPECT_EQ(a[i].type, b[i].type) << "op " << i;
    EXPECT_EQ(a[i].gap, b[i].gap) << "op " << i;
  }
}

void expect_cells_identical(const AdversaryTrack& a,
                            const AdversaryTrack& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size()) << track_key(a.kind, a.config);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const AdversaryCell& ca = a.cells[i];
    const AdversaryCell& cb = b.cells[i];
    EXPECT_EQ(ca.spec.key(), cb.spec.key()) << "cell " << i;
    EXPECT_EQ(ca.round, cb.round) << "cell " << i;
    EXPECT_EQ(ca.metrics.completed, cb.metrics.completed) << "cell " << i;
    EXPECT_EQ(ca.metrics.observed_wcl, cb.metrics.observed_wcl)
        << "cell " << i;
    EXPECT_EQ(ca.metrics.makespan, cb.metrics.makespan) << "cell " << i;
    EXPECT_EQ(ca.metrics.analytical_wcl, cb.metrics.analytical_wcl)
        << "cell " << i;
    EXPECT_EQ(ca.metrics.llc_requests, cb.metrics.llc_requests)
        << "cell " << i;
    EXPECT_EQ(ca.slack, cb.slack) << "cell " << i;
    EXPECT_EQ(ca.violation, cb.violation) << "cell " << i;
    EXPECT_EQ(ca.near_miss, cb.near_miss) << "cell " << i;
  }
}

TEST(AttackSpec, ContentAddressedIdentity) {
  AttackSpec spec;
  EXPECT_EQ(spec.key(), AttackSpec{}.key());
  EXPECT_EQ(spec.id(), AttackSpec{}.id());
  EXPECT_EQ(spec.id().size(), 16u);
  for (const char c : spec.id()) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c))) << spec.id();
  }
  // Every field participates in the key, even ones irrelevant to the kind:
  // the ID is a total function of the record.
  AttackSpec other = spec;
  other.burst_len += 1;
  EXPECT_NE(other.key(), spec.key());
  EXPECT_NE(other.id(), spec.id());
  other = spec;
  other.seed += 1;
  EXPECT_NE(other.id(), spec.id());
  EXPECT_THROW(
      []() {
        AttackSpec bad;
        bad.write_fraction = 1.5;
        bad.validate();
      }(),
      ConfigError);
}

TEST(AttackSpec, KindNamesRoundTrip) {
  for (const AttackKind kind : all_attack_kinds()) {
    EXPECT_EQ(attack_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_EQ(attack_kind_from_string("STORM"), AttackKind::kWritebackStorm);
  EXPECT_THROW((void)attack_kind_from_string("benign"), ConfigError);
}

TEST(AttackSpec, SeedManifestIsDeterministicAndDistinct) {
  for (const AttackKind kind : all_attack_kinds()) {
    const auto a = seed_manifest(kind, 42, 500);
    const auto b = seed_manifest(kind, 42, 500);
    ASSERT_EQ(a.size(), static_cast<std::size_t>(kManifestSpecs));
    std::set<std::string> ids;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].kind, kind);
      EXPECT_EQ(a[i].ops_per_core, 500);
      EXPECT_EQ(a[i].key(), b[i].key());
      ids.insert(a[i].id());
    }
    EXPECT_EQ(ids.size(), a.size()) << "manifest specs must be distinct";
    // A different base seed moves every stream seed (and thus every ID).
    const auto c = seed_manifest(kind, 43, 500);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NE(a[i].id(), c[i].id());
    }
  }
}

TEST(AttackSpec, MutationRedrawsSeedDeterministically) {
  const AttackSpec parent = seed_manifest(AttackKind::kSlotBurst, 1, 300)[0];
  Rng rng_a(99);
  Rng rng_b(99);
  const AttackSpec ma = mutate_spec(parent, rng_a);
  const AttackSpec mb = mutate_spec(parent, rng_b);
  EXPECT_EQ(ma.key(), mb.key());
  EXPECT_NE(ma.id(), parent.id());
  EXPECT_EQ(ma.kind, parent.kind);
}

TEST(AttackTrace, GenerationIsPureAndSized) {
  for (const AttackKind kind : all_attack_kinds()) {
    for (const AttackSpec& spec : seed_manifest(kind, 11, 250)) {
      const SweepConfig config{"SS(32,2,2)", 2};
      const core::ExperimentSetup setup = make_cell_setup(spec, config);
      const core::Trace once = make_attack_trace(spec, setup, CoreId{0});
      const core::Trace again = make_attack_trace(spec, setup, CoreId{0});
      ASSERT_EQ(once.size(), 250u) << spec.key();
      expect_traces_equal(once, again);
      // Distinct cores draw distinct streams over distinct regions.
      const core::Trace peer = make_attack_trace(spec, setup, CoreId{1});
      EXPECT_NE(once[0].addr, peer[0].addr) << spec.key();
    }
  }
}

TEST(AttackTrace, ConflictStrideFocusesTargetSetsBeyondAssociativity) {
  AttackSpec spec;
  spec.kind = AttackKind::kConflictStride;
  spec.ops_per_core = 600;
  spec.target_sets = 2;
  spec.edge_sets = true;
  const SweepConfig config{"SS(32,2,2)", 2};
  const core::ExperimentSetup setup = make_cell_setup(spec, config);
  const llc::PartitionSpec& part =
      setup.partitions().spec(setup.partitions().partition_of(CoreId{0}));
  const core::Trace trace = make_attack_trace(spec, setup, CoreId{0});
  std::set<int> sets;
  std::set<Addr> lines;
  for (const core::MemOp& op : trace) {
    sets.insert(part.map_set(op.addr / 64));
    lines.insert(op.addr / 64);
  }
  // Every access lands in one of the requested edge sets...
  EXPECT_EQ(sets.size(), 2u);
  EXPECT_TRUE(sets.contains(part.first_set));
  EXPECT_TRUE(sets.contains(part.first_set + part.num_sets - 1));
  // ...with more distinct lines than the partition rectangle holds in
  // those sets, so the pattern cannot settle into cache residency.
  EXPECT_GT(lines.size(),
            static_cast<std::size_t>(2 * part.num_ways));
}

TEST(AttackTrace, WritebackStormExceedsCachesAndWritesHard) {
  AttackSpec spec;
  spec.kind = AttackKind::kWritebackStorm;
  spec.ops_per_core = 800;
  spec.depth_factor = 2;
  spec.write_fraction = 1.0;
  const SweepConfig config{"P(8,2)", 2};
  const core::ExperimentSetup setup = make_cell_setup(spec, config);
  const core::Trace trace = make_attack_trace(spec, setup, CoreId{0});
  std::set<Addr> lines;
  int writes = 0;
  for (const core::MemOp& op : trace) {
    lines.insert(op.addr / 64);
    writes += op.type == AccessType::kWrite ? 1 : 0;
  }
  EXPECT_EQ(writes, 800);
  // Working set strictly larger than the private L2, so the sweep keeps
  // evicting dirty lines instead of hitting privately.
  EXPECT_GT(lines.size(),
            static_cast<std::size_t>(
                setup.config.private_caches.l2.capacity_lines()));
}

TEST(AttackTrace, SlotBurstsArePhasedPerCoreInSlotWidths) {
  AttackSpec spec;
  spec.kind = AttackKind::kSlotBurst;
  spec.ops_per_core = 64;
  spec.burst_len = 8;
  spec.idle_slots = 3;
  spec.phase_stride = 1;
  const SweepConfig config{"SS(32,2,2)", 2};
  const core::ExperimentSetup setup = make_cell_setup(spec, config);
  const Cycle slot = setup.config.slot_width;
  const core::Trace t0 = make_attack_trace(spec, setup, CoreId{0});
  const core::Trace t1 = make_attack_trace(spec, setup, CoreId{1});
  EXPECT_EQ(t0[0].gap, 0);
  EXPECT_EQ(t1[0].gap, slot) << "core 1 must start one slot later";
  for (std::size_t i = 1; i < t0.size(); ++i) {
    const Cycle want = i % 8 == 0 ? 3 * slot : 0;
    EXPECT_EQ(t0[i].gap, want) << "op " << i;
  }
}

TEST(AdversarySearch, ValidatesOptionsAndMask) {
  AdversaryOptions options = small_options();
  options.configs.clear();
  EXPECT_THROW((void)run_adversary_search(options), ConfigError);
  options = small_options();
  const std::vector<bool> short_mask(1, true);
  EXPECT_THROW((void)run_adversary_search(options, &short_mask),
               ConfigError);
}

TEST(AdversarySearch, HoldsBoundAndFillsEveryTrack) {
  const AdversaryOptions options = small_options();
  const AdversaryResult result = run_adversary_search(options);
  ASSERT_EQ(result.tracks.size(),
            options.kinds.size() * options.configs.size());
  EXPECT_EQ(result.violations, 0)
      << "adversarial workloads must stay under the analytical WCL";
  for (const AdversaryTrack& track : result.tracks) {
    EXPECT_TRUE(track.ran);
    ASSERT_EQ(track.cells.size(),
              static_cast<std::size_t>(options.cells_per_track()));
    EXPECT_GE(track.min_slack, 0.0);
    EXPECT_LE(track.min_slack, 1.0);
    std::set<std::string> ids;
    for (const AdversaryCell& cell : track.cells) {
      EXPECT_TRUE(cell.metrics.completed);
      EXPECT_GT(cell.metrics.analytical_wcl, 0);
      EXPECT_LE(cell.metrics.observed_wcl, cell.metrics.analytical_wcl);
      ids.insert(cell.spec.id());
    }
    EXPECT_EQ(ids.size(), track.cells.size())
        << "hill-climb cells must be content-distinct";
  }
}

TEST(AdversarySearch, BitIdenticalAcrossThreadCounts) {
  // (rounds, threads) pairs checked against the serial run of the same
  // rounds; three rounds (the perfbench shape) chain each round's mutation
  // onto the last cell of the round before.
  const std::vector<std::pair<int, std::vector<int>>> inputs = {
      {1, {4}}, {3, {2, 3}}};
  for (const auto& [rounds, thread_counts] : inputs) {
    AdversaryOptions serial = small_options();
    serial.rounds = rounds;
    serial.threads = 1;
    const AdversaryResult a = run_adversary_search(serial);
    for (const int threads : thread_counts) {
      SCOPED_TRACE("rounds " + std::to_string(rounds) + ", threads " +
                   std::to_string(threads));
      AdversaryOptions parallel = serial;
      parallel.threads = threads;
      const AdversaryResult b = run_adversary_search(parallel);
      ASSERT_EQ(a.tracks.size(), b.tracks.size());
      EXPECT_EQ(a.violations, b.violations);
      EXPECT_EQ(a.near_misses, b.near_misses);
      for (std::size_t t = 0; t < a.tracks.size(); ++t) {
        expect_cells_identical(a.tracks[t], b.tracks[t]);
      }
    }
  }
}

TEST(AdversarySearch, ShardedTracksStitchBitIdentical) {
  const AdversaryOptions options = small_options();
  const AdversaryResult whole = run_adversary_search(options);
  const std::size_t num_tracks = whole.tracks.size();
  for (const int shard_count : {1, 2, 3}) {
    std::vector<AdversaryTrack> stitched(num_tracks);
    for (int shard = 0; shard < shard_count; ++shard) {
      std::vector<bool> mask(num_tracks, false);
      for (std::size_t ordinal = 0; ordinal < num_tracks; ++ordinal) {
        mask[ordinal] =
            static_cast<int>(ordinal) % shard_count == shard;
      }
      const AdversaryResult part = run_adversary_search(options, &mask);
      ASSERT_EQ(part.tracks.size(), num_tracks);
      for (std::size_t ordinal = 0; ordinal < num_tracks; ++ordinal) {
        EXPECT_EQ(part.tracks[ordinal].ran, mask[ordinal]);
        if (mask[ordinal]) {
          stitched[ordinal] = part.tracks[ordinal];
        }
      }
    }
    for (std::size_t ordinal = 0; ordinal < num_tracks; ++ordinal) {
      ASSERT_TRUE(stitched[ordinal].ran) << "shards must cover all tracks";
      expect_cells_identical(whole.tracks[ordinal], stitched[ordinal]);
    }
  }
}

TEST(AdversarySearch, PromotionRoundTripsThroughTheCorpusLoader) {
  AdversaryOptions options = small_options();
  options.kinds = {AttackKind::kConflictStride};
  options.configs = {{"P(8,2)", 2}};
  const AdversaryResult result = run_adversary_search(options);
  const AdversaryTrack& track = result.tracks.front();
  const AdversaryCell* worst = &track.cells.front();
  for (const AdversaryCell& cell : track.cells) {
    if (cell.slack < worst->slack) {
      worst = &cell;
    }
  }

  const auto dir = fresh_dir("psllc_adversary_promo");
  const auto path = promote_cell(*worst, dir);
  EXPECT_EQ(path.filename().string(),
            "adv_conflict_" + worst->spec.id() + ".pslt");
  // Promoting the same cell twice dedups on the content-addressed stem.
  EXPECT_EQ(promote_cell(*worst, dir), path);

  const auto corpus = load_corpus_dir(dir);
  ASSERT_EQ(corpus.size(), 1u);
  EXPECT_EQ(corpus.front().name, path.stem().string());
  expect_traces_equal(corpus.front().trace, cua_trace(*worst));

  // The reloaded trace, substituted for the regenerated core-0 trace,
  // replays to the metrics the search recorded — the binary encode/decode
  // preserved the workload, not just its op count.
  const core::ExperimentSetup setup =
      make_cell_setup(worst->spec, worst->config);
  std::vector<core::Trace> traces;
  traces.push_back(corpus.front().trace);
  for (int c = 1; c < worst->config.active_cores; ++c) {
    traces.push_back(make_attack_trace(worst->spec, setup, CoreId{c}));
  }
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  request.options.max_cycles = options.max_cycles;
  const RunMetrics replayed = replay(request).metrics;
  EXPECT_EQ(replayed.completed, worst->metrics.completed);
  EXPECT_EQ(replayed.observed_wcl, worst->metrics.observed_wcl);
  EXPECT_EQ(replayed.makespan, worst->metrics.makespan);
  EXPECT_EQ(replayed.analytical_wcl, worst->metrics.analytical_wcl);
  EXPECT_EQ(replayed.llc_requests, worst->metrics.llc_requests);
}

}  // namespace
}  // namespace psllc::sim
