#include "sim/adversary.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "common/assert.h"
#include "common/string_util.h"
#include "sim/replay.h"
#include "sim/shard.h"
#include "sim/task_pool.h"
#include "sim/trace_io.h"

namespace psllc::sim {
namespace {

/// Canonical rendering of a real-valued knob for key() — round-trippable
/// (%.17g) so two specs share an ID only when the stored doubles are
/// bit-equal.
std::string render_real(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// Per-core disjoint line regions, far enough apart that mirrored corpus
/// replay's power-of-two window shift cannot alias them, and a multiple of
/// a large power of two so shifting preserves every set-mapping residue.
LineAddr region_base(CoreId core) {
  return (static_cast<LineAddr>(core.value) + 1) << 24;
}

/// The partition rectangle `core` allocates into.
const llc::PartitionSpec& partition_of(const core::ExperimentSetup& setup,
                                       CoreId core) {
  const int id = setup.partitions().partition_of(core);
  PSLLC_ASSERT(id >= 0, "attack generation needs a partitioned core, got "
                            << to_string(core));
  return setup.partitions().spec(id);
}

/// `count` distinct physical set indices of `part` to hammer. Edge mode
/// alternates outside-in from the rectangle's first/last rows (the sets a
/// neighboring partition bug would clobber first); spread mode spaces them
/// evenly.
std::vector<int> target_set_indices(const llc::PartitionSpec& part, int count,
                                    bool edge_sets) {
  const int sets = part.num_sets;
  count = std::clamp(count, 1, sets);
  std::vector<int> targets;
  targets.reserve(static_cast<std::size_t>(count));
  if (edge_sets) {
    int lo = 0;
    int hi = sets - 1;
    while (static_cast<int>(targets.size()) < count) {
      targets.push_back(part.first_set + lo);
      ++lo;
      if (static_cast<int>(targets.size()) < count && hi >= lo) {
        targets.push_back(part.first_set + hi);
        --hi;
      }
    }
  } else {
    for (int i = 0; i < count; ++i) {
      targets.push_back(part.first_set + (i * sets) / count);
    }
  }
  return targets;
}

/// `depth` distinct lines from `base` upward that the partition maps into
/// physical set `target` — mapping-aware (works for modulo and xor-fold
/// alike) by filtering a linear line scan through map_set itself.
std::vector<LineAddr> same_set_pool(const llc::PartitionSpec& part,
                                    int target, LineAddr base, int depth) {
  std::vector<LineAddr> pool;
  pool.reserve(static_cast<std::size_t>(depth));
  const std::uint64_t scan_limit =
      static_cast<std::uint64_t>(depth) * part.num_sets * 16 + 1024;
  for (std::uint64_t offset = 0; offset < scan_limit; ++offset) {
    const LineAddr line = base + offset;
    if (part.map_set(line) == target) {
      pool.push_back(line);
      if (static_cast<int>(pool.size()) == depth) {
        return pool;
      }
    }
  }
  PSLLC_ASSERT(false, "set mapping never produced " << depth
                          << " lines for set " << target);
  return pool;
}

/// Hammered lines per target set: enough to defeat the private hierarchy
/// under any line->L2-set residue pattern (the whole pool may collapse
/// into one or two L2 sets) plus the spec's conflict depth on top of the
/// partition ways.
int conflict_depth(const AttackSpec& spec, const core::ExperimentSetup& setup,
                   const llc::PartitionSpec& part) {
  return setup.config.private_caches.l2.capacity_lines() + 1 +
         spec.depth_factor * part.num_ways;
}

core::MemOp make_op(LineAddr line, bool write, Cycle gap) {
  return {line * 64, write ? AccessType::kWrite : AccessType::kRead, gap};
}

core::Trace conflict_trace(const AttackSpec& spec,
                           const core::ExperimentSetup& setup, CoreId core,
                           Rng& rng) {
  const llc::PartitionSpec& part = partition_of(setup, core);
  const int depth = conflict_depth(spec, setup, part);
  const std::vector<int> targets =
      target_set_indices(part, spec.target_sets, spec.edge_sets);
  std::vector<std::vector<LineAddr>> pools;
  pools.reserve(targets.size());
  for (const int target : targets) {
    pools.push_back(same_set_pool(part, target, region_base(core), depth));
  }
  core::Trace trace;
  trace.reserve(static_cast<std::size_t>(spec.ops_per_core));
  for (int i = 0; i < spec.ops_per_core; ++i) {
    const auto& pool = pools[static_cast<std::size_t>(i) % pools.size()];
    // Round-robin through the pool (the worst sequence for LRU), with an
    // occasional random revisit to stir replacement state.
    const std::size_t slot =
        rng.next_bool(0.125)
            ? static_cast<std::size_t>(rng.next_below(pool.size()))
            : (static_cast<std::size_t>(i) / pools.size()) % pool.size();
    trace.push_back(
        make_op(pool[slot], rng.next_bool(spec.write_fraction), 0));
  }
  return trace;
}

core::Trace storm_trace(const AttackSpec& spec,
                        const core::ExperimentSetup& setup, CoreId core,
                        Rng& rng) {
  const llc::PartitionSpec& part = partition_of(setup, core);
  const int ws_lines =
      spec.depth_factor *
      std::max(setup.config.private_caches.l2.capacity_lines(),
               part.capacity_lines());
  const LineAddr base = region_base(core);
  core::Trace trace;
  trace.reserve(static_cast<std::size_t>(spec.ops_per_core));
  std::uint64_t cursor = 0;
  for (int i = 0; i < spec.ops_per_core; ++i) {
    // Mostly a sequential sweep (every access a capacity miss once the
    // working set exceeds both the L2 and the partition), with occasional
    // jumps so dirty victims are not always the oldest line.
    if (rng.next_bool(0.125)) {
      cursor = rng.next_below(static_cast<std::uint64_t>(ws_lines));
    } else {
      cursor = (cursor + 1) % static_cast<std::uint64_t>(ws_lines);
    }
    trace.push_back(
        make_op(base + cursor, rng.next_bool(spec.write_fraction), 0));
  }
  return trace;
}

core::Trace repart_trace(const AttackSpec& spec,
                         const core::ExperimentSetup& setup, CoreId core,
                         Rng& rng) {
  const llc::PartitionSpec& part = partition_of(setup, core);
  const int depth = conflict_depth(spec, setup, part);
  const std::vector<int> targets =
      target_set_indices(part, spec.target_sets, spec.edge_sets);
  std::vector<std::vector<LineAddr>> pools;
  pools.reserve(targets.size());
  for (const int target : targets) {
    pools.push_back(same_set_pool(part, target, region_base(core), depth));
  }
  const Cycle slot = setup.config.slot_width;
  const int cores = std::max(1, setup.config.num_cores);
  const Cycle epoch =
      static_cast<Cycle>(spec.repartition_epoch_slots) * slot;
  // Aim the first burst a couple of slots ahead of the trigger so its
  // requests are still in flight when the drain window opens; later bursts
  // keep hammering the frozen-then-reopened rectangle. Mostly-write
  // traffic dirties the moved ways, maximizing the drain's write-back
  // volume.
  const Cycle lead = epoch > 2 * slot ? epoch - 2 * slot : 0;
  const Cycle phase =
      static_cast<Cycle>((core.value * spec.phase_stride) % cores) * slot;
  core::Trace trace;
  trace.reserve(static_cast<std::size_t>(spec.ops_per_core));
  for (int i = 0; i < spec.ops_per_core; ++i) {
    const bool burst_head = i % spec.burst_len == 0;
    Cycle gap = 0;
    if (i == 0) {
      gap = lead + phase;
    } else if (burst_head) {
      gap = static_cast<Cycle>(spec.idle_slots) * slot;
    }
    const auto& pool = pools[static_cast<std::size_t>(i) % pools.size()];
    const std::size_t slot_index =
        rng.next_bool(0.125)
            ? static_cast<std::size_t>(rng.next_below(pool.size()))
            : (static_cast<std::size_t>(i) / pools.size()) % pool.size();
    trace.push_back(
        make_op(pool[slot_index], rng.next_bool(spec.write_fraction), gap));
  }
  return trace;
}

core::Trace burst_trace(const AttackSpec& spec,
                        const core::ExperimentSetup& setup, CoreId core,
                        Rng& rng) {
  const llc::PartitionSpec& part = partition_of(setup, core);
  const int depth = conflict_depth(spec, setup, part);
  const std::vector<int> targets =
      target_set_indices(part, spec.target_sets, /*edge_sets=*/true);
  std::vector<std::vector<LineAddr>> pools;
  pools.reserve(targets.size());
  for (const int target : targets) {
    pools.push_back(same_set_pool(part, target, region_base(core), depth));
  }
  const Cycle slot = setup.config.slot_width;
  const int cores = std::max(1, setup.config.num_cores);
  // Phase the cores apart by whole slots so bursts collide with different
  // points of the TDM period on every core.
  const Cycle phase =
      static_cast<Cycle>((core.value * spec.phase_stride) % cores) * slot;
  core::Trace trace;
  trace.reserve(static_cast<std::size_t>(spec.ops_per_core));
  for (int i = 0; i < spec.ops_per_core; ++i) {
    const bool burst_head = i % spec.burst_len == 0;
    Cycle gap = 0;
    if (i == 0) {
      gap = phase;
    } else if (burst_head) {
      gap = static_cast<Cycle>(spec.idle_slots) * slot;
    }
    const auto& pool = pools[static_cast<std::size_t>(i) % pools.size()];
    const std::size_t slot_index =
        (static_cast<std::size_t>(i) / pools.size()) % pool.size();
    trace.push_back(
        make_op(pool[slot_index], rng.next_bool(spec.write_fraction), gap));
  }
  return trace;
}

}  // namespace

AttackKind attack_kind_from_string(std::string_view text) {
  for (const AttackKind kind : all_attack_kinds()) {
    if (iequals(text, to_string(kind))) {
      return kind;
    }
  }
  PSLLC_CONFIG_CHECK(false, "unknown attack kind '"
                                << std::string(text)
                                << "' (want conflict, storm, burst or "
                                   "repart)");
  return AttackKind::kConflictStride;
}

std::vector<AttackKind> all_attack_kinds() {
  return {AttackKind::kConflictStride, AttackKind::kWritebackStorm,
          AttackKind::kSlotBurst, AttackKind::kRepartitionBurst};
}

std::string AttackSpec::key() const {
  std::string key;
  key += "attack|";
  key += to_string(kind);
  key += "|seed=" + std::to_string(seed);
  key += "|ops=" + std::to_string(ops_per_core);
  key += "|backend=" + mem::to_string(backend);
  key += "|sets=" + std::to_string(target_sets);
  key += "|depth=" + std::to_string(depth_factor);
  key += "|edge=" + std::to_string(edge_sets ? 1 : 0);
  key += "|wf=" + render_real(write_fraction);
  key += "|burst=" + std::to_string(burst_len);
  key += "|idle=" + std::to_string(idle_slots);
  key += "|phase=" + std::to_string(phase_stride);
  // Post-seed fields append only when meaningful, so every spec minted
  // before they existed keeps its content ID (and the committed goldens
  // their rows).
  if (asymmetric) {
    key += "|asym=1";
  }
  if (kind == AttackKind::kRepartitionBurst) {
    key += "|repoch=" + std::to_string(repartition_epoch_slots);
  }
  return key;
}

std::string AttackSpec::id() const { return content_id(key()); }

void AttackSpec::validate() const {
  PSLLC_CONFIG_CHECK(ops_per_core >= 1 && ops_per_core <= 10'000'000,
                     "attack ops_per_core must be in [1, 1e7], got "
                         << ops_per_core);
  PSLLC_CONFIG_CHECK(target_sets >= 1 && target_sets <= 4096,
                     "attack target_sets must be in [1, 4096], got "
                         << target_sets);
  PSLLC_CONFIG_CHECK(depth_factor >= 1 && depth_factor <= 64,
                     "attack depth_factor must be in [1, 64], got "
                         << depth_factor);
  PSLLC_CONFIG_CHECK(write_fraction >= 0.0 && write_fraction <= 1.0,
                     "attack write_fraction must be in [0, 1], got "
                         << write_fraction);
  PSLLC_CONFIG_CHECK(burst_len >= 1 && burst_len <= 4096,
                     "attack burst_len must be in [1, 4096], got "
                         << burst_len);
  PSLLC_CONFIG_CHECK(idle_slots >= 0 && idle_slots <= 1024,
                     "attack idle_slots must be in [0, 1024], got "
                         << idle_slots);
  PSLLC_CONFIG_CHECK(phase_stride >= 0 && phase_stride <= 64,
                     "attack phase_stride must be in [0, 64], got "
                         << phase_stride);
  PSLLC_CONFIG_CHECK(
      repartition_epoch_slots >= 1 && repartition_epoch_slots <= 65536,
      "attack repartition_epoch_slots must be in [1, 65536], got "
          << repartition_epoch_slots);
}

std::vector<AttackSpec> seed_manifest(AttackKind kind,
                                      std::uint64_t base_seed,
                                      int ops_per_core) {
  std::vector<AttackSpec> specs(kManifestSpecs);
  for (int i = 0; i < kManifestSpecs; ++i) {
    AttackSpec& spec = specs[static_cast<std::size_t>(i)];
    spec.kind = kind;
    spec.ops_per_core = ops_per_core;
    spec.seed = mix_seed(base_seed, static_cast<std::uint64_t>(kind),
                         static_cast<std::uint64_t>(i) + 1);
    switch (kind) {
      case AttackKind::kConflictStride:
        // One edge set, two edge sets, and a spread pattern.
        spec.target_sets = i == 2 ? 4 : i + 1;
        spec.depth_factor = 2 + i;
        spec.edge_sets = i != 2;
        spec.write_fraction = 0.5;
        break;
      case AttackKind::kWritebackStorm:
        // All-write storms against the bounded write queue, plus one
        // against the paper's fixed-latency model as a control.
        spec.depth_factor = i == 1 ? 4 : 2;
        spec.write_fraction = i == 2 ? 0.9 : 1.0;
        spec.backend = i == 2 ? mem::MemoryBackendKind::kFixedLatency
                              : mem::MemoryBackendKind::kWriteQueue;
        break;
      case AttackKind::kSlotBurst:
        spec.target_sets = 1 + i;
        spec.burst_len = 4 << i;  // 4, 8, 16
        spec.idle_slots = 2 - i >= 0 ? 2 - i : 0;
        spec.phase_stride = i == 2 ? 2 : 1;
        spec.write_fraction = 0.5;
        break;
      case AttackKind::kRepartitionBurst:
        // Early/mid/late triggers with growing way bounce; the last seed
        // is the asymmetric mix — repartition bursts on the cua while the
        // other cores rotate through the classic aggressor patterns.
        spec.target_sets = 1 + i;
        spec.depth_factor = i == 1 ? 8 : 4;  // ways bounced at the switch
        spec.repartition_epoch_slots = 12 + 12 * i;
        spec.burst_len = 8;
        spec.write_fraction = 0.75;
        spec.asymmetric = i == 2;
        break;
    }
    spec.validate();
  }
  return specs;
}

AttackSpec mutate_spec(const AttackSpec& spec, Rng& rng) {
  AttackSpec mutant = spec;
  // The stream seed always moves, so a mutant is never content-identical
  // to its parent even when every knob jitter lands on the same value.
  mutant.seed = rng.next_u64();
  const auto jitter = [&rng](int value, int lo, int hi) {
    return static_cast<int>(std::clamp<std::int64_t>(
        value + rng.next_in_range(-1, 1), lo, hi));
  };
  switch (spec.kind) {
    case AttackKind::kConflictStride:
      mutant.target_sets = jitter(spec.target_sets, 1, 8);
      mutant.depth_factor = jitter(spec.depth_factor, 1, 8);
      if (rng.next_bool(0.25)) {
        mutant.edge_sets = !spec.edge_sets;
      }
      mutant.write_fraction = std::clamp(
          spec.write_fraction +
              0.25 * static_cast<double>(rng.next_in_range(-1, 1)),
          0.0, 1.0);
      break;
    case AttackKind::kWritebackStorm:
      mutant.depth_factor = jitter(spec.depth_factor, 2, 8);
      mutant.write_fraction = std::clamp(
          spec.write_fraction +
              0.05 * static_cast<double>(rng.next_in_range(-1, 1)),
          0.5, 1.0);
      if (rng.next_bool(0.25)) {
        mutant.backend =
            spec.backend == mem::MemoryBackendKind::kWriteQueue
                ? mem::MemoryBackendKind::kFixedLatency
                : mem::MemoryBackendKind::kWriteQueue;
      }
      break;
    case AttackKind::kSlotBurst:
      mutant.burst_len = static_cast<int>(std::clamp<std::int64_t>(
          spec.burst_len + rng.next_in_range(-1, 1) * 4, 1, 64));
      mutant.idle_slots = jitter(spec.idle_slots, 0, 8);
      mutant.phase_stride = jitter(spec.phase_stride, 0, 8);
      mutant.target_sets = jitter(spec.target_sets, 1, 8);
      break;
    case AttackKind::kRepartitionBurst:
      mutant.repartition_epoch_slots = static_cast<int>(
          std::clamp<std::int64_t>(spec.repartition_epoch_slots +
                                       rng.next_in_range(-1, 1) * 4,
                                   4, 256));
      mutant.depth_factor = jitter(spec.depth_factor, 1, 8);
      mutant.burst_len = static_cast<int>(std::clamp<std::int64_t>(
          spec.burst_len + rng.next_in_range(-1, 1) * 4, 1, 64));
      mutant.target_sets = jitter(spec.target_sets, 1, 8);
      if (rng.next_bool(0.25)) {
        mutant.asymmetric = !spec.asymmetric;
      }
      break;
  }
  mutant.validate();
  return mutant;
}

core::ExperimentSetup make_cell_setup(const AttackSpec& spec,
                                      const SweepConfig& config) {
  core::ExperimentSetup setup =
      core::make_paper_setup(config.notation, config.active_cores);
  setup.config.dram.backend = spec.backend;
  setup.config.validate();
  if (spec.kind == AttackKind::kRepartitionBurst) {
    // Two-mode program: bounce depth_factor ways at the spec's trigger
    // epoch, so the drain window opens while the bursts are in flight.
    const Cycle epoch = static_cast<Cycle>(spec.repartition_epoch_slots) *
                        setup.config.slot_width;
    llc::PartitionProgram program(setup.partitions());
    program.add_mode(llc::make_way_bounced_map(setup.partitions(),
                                               spec.depth_factor),
                     epoch, {}, "bounce");
    setup.program = std::move(program);
  }
  return setup;
}

core::Trace make_attack_trace(const AttackSpec& spec,
                              const core::ExperimentSetup& setup,
                              CoreId core) {
  spec.validate();
  Rng rng(mix_seed(spec.seed, static_cast<std::uint64_t>(core.value)));
  // Asymmetric cells: the core under analysis keeps the spec's pattern;
  // every other core rotates through the classic aggressor families, so
  // one cell mixes distinct per-core patterns.
  AttackKind trace_kind = spec.kind;
  if (spec.asymmetric && core.value > 0) {
    constexpr AttackKind kRotation[3] = {AttackKind::kConflictStride,
                                         AttackKind::kWritebackStorm,
                                         AttackKind::kSlotBurst};
    trace_kind =
        kRotation[(static_cast<int>(spec.kind) + core.value) % 3];
  }
  switch (trace_kind) {
    case AttackKind::kConflictStride:
      return conflict_trace(spec, setup, core, rng);
    case AttackKind::kWritebackStorm:
      return storm_trace(spec, setup, core, rng);
    case AttackKind::kSlotBurst:
      return burst_trace(spec, setup, core, rng);
    case AttackKind::kRepartitionBurst:
      return repart_trace(spec, setup, core, rng);
  }
  PSLLC_ASSERT(false, "unreachable attack kind");
  return {};
}

void AdversaryOptions::validate() const {
  PSLLC_CONFIG_CHECK(!kinds.empty(), "adversary search needs >= 1 pattern");
  PSLLC_CONFIG_CHECK(!configs.empty(), "adversary search needs >= 1 config");
  PSLLC_CONFIG_CHECK(ops_per_core >= 1 && ops_per_core <= 10'000'000,
                     "adversary ops_per_core must be in [1, 1e7], got "
                         << ops_per_core);
  PSLLC_CONFIG_CHECK(rounds >= 0 && rounds <= 64,
                     "adversary rounds must be in [0, 64], got " << rounds);
  PSLLC_CONFIG_CHECK(survivors >= 1 && survivors <= 64,
                     "adversary survivors must be in [1, 64], got "
                         << survivors);
  PSLLC_CONFIG_CHECK(mutants >= 1 && mutants <= 64,
                     "adversary mutants must be in [1, 64], got " << mutants);
  PSLLC_CONFIG_CHECK(
      near_miss_slack >= 0.0 && near_miss_slack <= 1.0,
      "adversary near-miss slack must be in [0, 1], got " << near_miss_slack);
  PSLLC_CONFIG_CHECK(max_cycles >= 1,
                     "adversary max_cycles must be >= 1, got " << max_cycles);
  PSLLC_CONFIG_CHECK(threads >= 0,
                     "adversary threads must be >= 0, got " << threads);
}

std::string track_key(AttackKind kind, const SweepConfig& config) {
  return std::string(to_string(kind)) + "|" + config.notation + "@" +
         std::to_string(config.active_cores);
}

AdversaryCell evaluate_cell(const AttackSpec& spec, const SweepConfig& config,
                            const AdversaryOptions& options, int round) {
  AdversaryCell cell;
  cell.spec = spec;
  cell.config = config;
  cell.round = round;
  const core::ExperimentSetup setup = make_cell_setup(spec, config);
  std::vector<core::Trace> traces;
  traces.reserve(static_cast<std::size_t>(config.active_cores));
  for (int c = 0; c < config.active_cores; ++c) {
    traces.push_back(make_attack_trace(spec, setup, CoreId{c}));
  }
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  request.options.max_cycles = options.max_cycles;
  cell.metrics = replay(request).metrics;

  const RunMetrics& m = cell.metrics;
  // Dynamic-program cells are scored against the transient bound (the
  // steady bound does not claim to cover requests in flight across a mode
  // switch); for static programs transient == steady, so the math is
  // unchanged for every pre-existing cell.
  const Cycle bound = std::max(m.analytical_wcl, m.transient_analytical_wcl);
  if (m.completed && bound > 0) {
    cell.slack = static_cast<double>(bound - m.observed_wcl) /
                 static_cast<double>(bound);
  }
  cell.violation = m.completed && m.observed_wcl > bound;
  cell.near_miss = m.completed && !cell.violation &&
                   cell.slack <= options.near_miss_slack;
  return cell;
}

namespace {

/// One track's hill-climb as pool tasks: each round is one task per cell,
/// and the round's last cell to finish ranks the cells so far and mutates
/// the next round's specs. So the mutation stream is drawn serially, in
/// round order, and a track waits only on its own cells.
class TrackSearch {
 public:
  /// Plans the seed manifest as round 0.
  TrackSearch(AdversaryTrack& track, const AdversaryOptions& options)
      : track_(track),
        options_(options),
        key_(track_key(track.kind, track.config)),
        // The track's mutation stream depends only on (search seed, track
        // key) — not on thread scheduling or shard layout.
        rng_(mix_seed(options.seed, fnv1a64(key_))) {
    track_.ran = true;
    track_.cells.resize(static_cast<std::size_t>(options.cells_per_track()));
    for (const AttackSpec& spec :
         seed_manifest(track.kind, options.seed, options.ops_per_core)) {
      plan(spec);
    }
  }

  /// Queues the cells planned from slot `begin` on: the current round's.
  void queue_round(TaskPool& pool, std::size_t begin) {
    // Read once: the round's last cell may plan the next round (moving
    // planned_) while this loop is still queuing.
    const std::size_t end = planned_;
    pending_ = end - begin;
    for (std::size_t i = begin; i < end; ++i) {
      pool.enqueue([this, &pool, i] {
        run_named("adversary search failed:", key_, [&] {
          AdversaryCell& cell = track_.cells[i];
          cell = evaluate_cell(cell.spec, track_.config, options_, cell.round);
          if (pending_.fetch_sub(1) == 1 && round_ < options_.rounds) {
            const std::size_t next = planned_;
            plan_next_round();
            queue_round(pool, next);
          }
        });
      });
    }
  }

 private:
  /// Claims the next cell slot for `spec` in the current round.
  void plan(const AttackSpec& spec) {
    seen_ids_.insert(spec.id());
    AdversaryCell& cell = track_.cells[planned_++];
    cell.spec = spec;
    cell.round = round_;
  }

  void plan_next_round() {
    ++round_;
    // Rank the worst offenders: lowest slack first, content ID as the
    // deterministic tie-break.
    std::vector<std::size_t> order(planned_);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                const AdversaryCell& ca = track_.cells[a];
                const AdversaryCell& cb = track_.cells[b];
                if (ca.slack != cb.slack) {
                  return ca.slack < cb.slack;
                }
                return ca.spec.id() < cb.spec.id();
              });
    const int take =
        std::min<int>(options_.survivors, static_cast<int>(order.size()));
    for (int s = 0; s < take; ++s) {
      // Survivors sit in earlier rounds' slots, which plan() never writes.
      const AttackSpec& survivor =
          track_.cells[order[static_cast<std::size_t>(s)]].spec;
      for (int m = 0; m < options_.mutants; ++m) {
        AttackSpec mutant = survivor;
        bool fresh = false;
        for (int attempt = 0; attempt < 64 && !fresh; ++attempt) {
          mutant = mutate_spec(survivor, rng_);
          fresh = !seen_ids_.contains(mutant.id());
        }
        PSLLC_ASSERT(fresh, "mutation failed to find a fresh spec for "
                                << survivor.id());
        plan(mutant);
      }
    }
    // With fewer cells than survivors the track would fall short of the
    // fixed cells_per_track row budget; the manifest floor (>= 1 spec per
    // kind) and take = min(...) above make that impossible.
    PSLLC_ASSERT(round_ < options_.rounds || planned_ == track_.cells.size(),
                 "track " << key_ << " produced " << planned_
                          << " cells, expected " << track_.cells.size());
  }

  AdversaryTrack& track_;
  const AdversaryOptions& options_;
  const std::string key_;
  Rng rng_;
  std::unordered_set<std::string> seen_ids_;  // membership tests only
  int round_ = 0;
  std::size_t planned_ = 0;      ///< cell slots claimed so far
  std::atomic<std::size_t> pending_{0};  ///< unfinished cells of the round
};

}  // namespace

AdversaryResult run_adversary_search(const AdversaryOptions& options,
                                     const std::vector<bool>* track_mask) {
  options.validate();
  for (const SweepConfig& config : options.configs) {
    PSLLC_CONFIG_CHECK(config.active_cores >= 1,
                       "adversary config '" << config.notation
                                           << "' needs >= 1 active core");
  }
  const std::size_t num_tracks =
      options.kinds.size() * options.configs.size();
  PSLLC_CONFIG_CHECK(track_mask == nullptr ||
                         track_mask->size() == num_tracks,
                     "adversary track mask has " <<
                         (track_mask == nullptr ? 0 : track_mask->size())
                         << " flags for " << num_tracks << " tracks");

  AdversaryResult result;
  result.tracks.resize(num_tracks);
  std::deque<TrackSearch> searches;  // one per track that runs
  for (std::size_t ordinal = 0; ordinal < num_tracks; ++ordinal) {
    AdversaryTrack& track = result.tracks[ordinal];
    track.kind = options.kinds[ordinal / options.configs.size()];
    track.config = options.configs[ordinal % options.configs.size()];
    if (track_mask == nullptr || (*track_mask)[ordinal]) {
      searches.emplace_back(track, options);
    }
  }
  TaskPool pool(resolve_thread_budget(options.threads));
  pool.run(searches.size(),
           [&](std::size_t root) { searches[root].queue_round(pool, 0); });

  for (AdversaryTrack& track : result.tracks) {
    for (const AdversaryCell& cell : track.cells) {
      if (cell.metrics.completed) {
        track.min_slack = std::min(track.min_slack, cell.slack);
      }
      track.near_misses += cell.near_miss ? 1 : 0;
      track.violations += cell.violation ? 1 : 0;
    }
    result.violations += track.violations;
    result.near_misses += track.near_misses;
  }
  return result;
}

core::Trace cua_trace(const AdversaryCell& cell) {
  const core::ExperimentSetup setup = make_cell_setup(cell.spec, cell.config);
  return make_attack_trace(cell.spec, setup, CoreId{0});
}

std::filesystem::path promote_cell(const AdversaryCell& cell,
                                   const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  const std::filesystem::path path =
      dir / ("adv_" + std::string(to_string(cell.spec.kind)) + "_" +
             cell.spec.id() + ".pslt");
  write_trace_file(path.string(), cua_trace(cell));
  return path;
}

}  // namespace psllc::sim
