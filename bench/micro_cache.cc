// Google-benchmark microbenchmarks for the hot data structures: the private
// hierarchy's L1 hit, L2 hit and miss+fill paths, replacement victim
// selection, and the set sequencer.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "llc/set_sequencer.h"
#include "mem/private_cache.h"
#include "mem/replacement.h"

namespace {

using namespace psllc;  // NOLINT

// The paper's private hierarchy: L1D 4 sets x 4 ways, L2 16 sets x 4 ways.
mem::PrivateCacheHierarchy paper_caches() {
  return mem::PrivateCacheHierarchy(mem::PrivateCacheConfig{}, 1);
}

void warm(mem::PrivateCacheHierarchy& caches, LineAddr lines) {
  for (LineAddr line = 0; line < lines; ++line) {
    if (caches.access(line * 64, AccessType::kRead) == mem::HitLevel::kMiss) {
      (void)caches.fill(line * 64, AccessType::kRead, false);
    }
  }
}

void BM_PrivateL1Hit(benchmark::State& state) {
  mem::PrivateCacheHierarchy caches = paper_caches();
  const auto lines = static_cast<LineAddr>(caches.config().l1d.capacity_lines());
  warm(caches, lines);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        caches.access(rng.next_below(lines) * 64, AccessType::kRead));
  }
}
BENCHMARK(BM_PrivateL1Hit);

void BM_PrivateL2Hit(benchmark::State& state) {
  // A cyclic sweep over the L2's capacity: LRU keeps every line in L2, and
  // each L1D set sees four times its ways, so every access misses L1.
  mem::PrivateCacheHierarchy caches = paper_caches();
  const auto lines = static_cast<LineAddr>(caches.capacity_lines());
  warm(caches, lines);
  LineAddr line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(caches.access(line * 64, AccessType::kRead));
    line = line + 1 == lines ? 0 : line + 1;
  }
}
BENCHMARK(BM_PrivateL2Hit);

void BM_PrivateMissFill(benchmark::State& state) {
  mem::PrivateCacheHierarchy caches = paper_caches();
  LineAddr line = 0;
  for (auto _ : state) {
    const Addr addr = line++ * 64;
    benchmark::DoNotOptimize(caches.access(addr, AccessType::kWrite));
    benchmark::DoNotOptimize(caches.fill(addr, AccessType::kWrite, true));
  }
}
BENCHMARK(BM_PrivateMissFill);

void BM_VictimSelection(benchmark::State& state) {
  const auto kind = static_cast<mem::ReplacementKind>(state.range(0));
  mem::ReplacementPolicy policy(kind, 16, 7);
  for (int w = 0; w < 16; ++w) {
    policy.on_insert(w);
  }
  const mem::WayMask eligible = mem::way_range(0, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.select_victim(eligible));
  }
}
BENCHMARK(BM_VictimSelection)
    ->Arg(static_cast<int>(mem::ReplacementKind::kLru))
    ->Arg(static_cast<int>(mem::ReplacementKind::kFifo))
    ->Arg(static_cast<int>(mem::ReplacementKind::kRandom))
    ->Arg(static_cast<int>(mem::ReplacementKind::kNmru))
    ->Arg(static_cast<int>(mem::ReplacementKind::kTreePlru));

void BM_SetSequencerCycle(benchmark::State& state) {
  llc::SetSequencer sequencer(4, 4);
  const llc::SetKey key{0, 3};
  for (auto _ : state) {
    sequencer.enqueue(key, CoreId{0});
    sequencer.enqueue(key, CoreId{1});
    benchmark::DoNotOptimize(sequencer.is_head(key, CoreId{1}));
    sequencer.dequeue_head(key, CoreId{0});
    sequencer.dequeue_head(key, CoreId{1});
  }
}
BENCHMARK(BM_SetSequencerCycle);

}  // namespace

BENCHMARK_MAIN();
