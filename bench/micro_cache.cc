// Google-benchmark microbenchmarks for the hot data structures: cache
// lookup/fill, replacement victim selection, and the set sequencer.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "llc/set_sequencer.h"
#include "mem/replacement.h"
#include "mem/set_assoc_cache.h"

namespace {

using namespace psllc;  // NOLINT

void BM_CacheAccessHit(benchmark::State& state) {
  mem::SetAssocCache cache({32, 16, 64}, mem::ReplacementKind::kLru);
  for (LineAddr line = 0; line < 32 * 16; ++line) {
    cache.fill(line, false);
  }
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.next_below(32 * 16), false));
  }
}
BENCHMARK(BM_CacheAccessHit);

void BM_CacheFillEvict(benchmark::State& state) {
  mem::SetAssocCache cache({32, 16, 64}, mem::ReplacementKind::kLru);
  LineAddr line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.fill(line++, false));
  }
}
BENCHMARK(BM_CacheFillEvict);

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
