// Tests for the partitioned inclusive LLC: partitions, directory, set
// sequencer, and the PartitionedLlc request/write-back protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "llc/llc.h"

namespace psllc::llc {
namespace {

// --- PartitionSpec / PartitionMap -------------------------------------------

TEST(PartitionSpec, OverlapDetection) {
  const PartitionSpec a{0, 4, 0, 2};
  const PartitionSpec b{4, 4, 0, 2};   // disjoint sets
  const PartitionSpec c{0, 4, 2, 2};   // disjoint ways
  const PartitionSpec d{2, 4, 1, 2};   // overlaps a
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(a.overlaps(d));
  EXPECT_TRUE(d.overlaps(a));
}

TEST(PartitionSpec, MapSetIsModuloWithinRectangle) {
  const PartitionSpec spec{8, 4, 0, 2};
  EXPECT_EQ(spec.map_set(0), 8);
  EXPECT_EQ(spec.map_set(3), 11);
  EXPECT_EQ(spec.map_set(4), 8);
  EXPECT_EQ(spec.capacity_lines(), 8);
}

TEST(PartitionSpec, ValidatesAgainstGeometry) {
  const mem::CacheGeometry geometry{32, 16, 64};
  EXPECT_NO_THROW((PartitionSpec{0, 32, 0, 16}).validate(geometry));
  EXPECT_THROW((PartitionSpec{0, 33, 0, 16}).validate(geometry), ConfigError);
  EXPECT_THROW((PartitionSpec{0, 32, 15, 2}).validate(geometry), ConfigError);
  EXPECT_THROW((PartitionSpec{0, 0, 0, 1}).validate(geometry), ConfigError);
}

TEST(PartitionMap, RejectsOverlapAndDoubleMembership) {
  const mem::CacheGeometry geometry{32, 16, 64};
  PartitionMap map(geometry);
  map.add_partition(PartitionSpec{0, 4, 0, 4}, {CoreId{0}});
  EXPECT_THROW(map.add_partition(PartitionSpec{2, 4, 2, 4}, {CoreId{1}}),
               ConfigError);
  EXPECT_THROW(map.add_partition(PartitionSpec{8, 4, 0, 4}, {CoreId{0}}),
               ConfigError);
  EXPECT_THROW(
      map.add_partition(PartitionSpec{8, 4, 0, 4}, {CoreId{1}, CoreId{1}}),
      ConfigError);
}

TEST(PartitionMap, LookupAndSharerCounts) {
  const mem::CacheGeometry geometry{32, 16, 64};
  PartitionMap map(geometry);
  const int shared = map.add_partition(PartitionSpec{0, 4, 0, 4},
                                       {CoreId{0}, CoreId{1}});
  const int own = map.add_partition(PartitionSpec{4, 4, 0, 4}, {CoreId{2}});
  EXPECT_EQ(map.partition_of(CoreId{0}), shared);
  EXPECT_EQ(map.partition_of(CoreId{1}), shared);
  EXPECT_EQ(map.partition_of(CoreId{2}), own);
  EXPECT_EQ(map.partition_of(CoreId{3}), -1);
  EXPECT_EQ(map.sharer_count_of(CoreId{0}), 2);
  EXPECT_EQ(map.sharer_count_of(CoreId{2}), 1);
  EXPECT_THROW(map.validate_covers_cores(4), ConfigError);
  EXPECT_NO_THROW(map.validate_covers_cores(3));
}

TEST(PartitionBuilders, PaperNotationShapes) {
  const mem::CacheGeometry geometry{32, 16, 64};
  // P(8,2) x 4 cores: tiled across sets.
  const PartitionMap p = make_private_partitions(geometry, 4, 8, 2);
  EXPECT_EQ(p.num_partitions(), 4);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(p.sharer_count_of(CoreId{c}), 1);
  }
  EXPECT_EQ(p.spec(0).first_set, 0);
  EXPECT_EQ(p.spec(1).first_set, 8);
  EXPECT_EQ(p.spec(3).first_set, 24);
  // P(1,2) x 4: distinct sets, same ways.
  const PartitionMap tiny = make_private_partitions(geometry, 4, 1, 2);
  EXPECT_EQ(tiny.spec(2).first_set, 2);
  EXPECT_EQ(tiny.spec(2).first_way, 0);
  // SS(32,4,2).
  const PartitionMap shared = make_shared_partition(
      geometry, {CoreId{0}, CoreId{1}}, 32, 4);
  EXPECT_EQ(shared.num_partitions(), 1);
  EXPECT_EQ(shared.sharer_count_of(CoreId{1}), 2);
  // Too many cores to tile: P(32,16) x 2 does not fit.
  EXPECT_THROW(make_private_partitions(geometry, 2, 32, 16), ConfigError);
}

// --- InclusiveDirectory --------------------------------------------------------

TEST(Directory, AddRemoveSharers) {
  InclusiveDirectory directory;
  directory.add_sharer(0x1, CoreId{0});
  directory.add_sharer(0x1, CoreId{2});
  EXPECT_EQ(directory.sharer_count(0x1), 2);
  EXPECT_TRUE(directory.is_shared_by(0x1, CoreId{2}));
  EXPECT_FALSE(directory.is_shared_by(0x1, CoreId{1}));
  EXPECT_TRUE(directory.remove_sharer(0x1, CoreId{0}));
  EXPECT_FALSE(directory.remove_sharer(0x1, CoreId{0}));
  EXPECT_EQ(directory.sharer_count(0x1), 1);
  EXPECT_TRUE(directory.remove_sharer(0x1, CoreId{2}));
  EXPECT_EQ(directory.sharer_count(0x1), 0);
  EXPECT_EQ(directory.tracked_lines(), 0);
}

TEST(Directory, AddIfAbsentAddsOnce) {
  InclusiveDirectory directory;
  EXPECT_TRUE(directory.add_sharer_if_absent(0x9, CoreId{3}));
  EXPECT_FALSE(directory.add_sharer_if_absent(0x9, CoreId{3}));
  EXPECT_TRUE(directory.add_sharer_if_absent(0x9, CoreId{1}));
  EXPECT_EQ(directory.sharer_mask(0x9), core_bit(CoreId{1}) | core_bit(CoreId{3}));
  EXPECT_EQ(directory.tracked_lines(), 1);
  EXPECT_THROW((void)directory.add_sharer_if_absent(0x9, kNoCore),
               AssertionError);
}

TEST(Directory, DuplicateAddAsserts) {
  InclusiveDirectory directory;
  directory.add_sharer(0x1, CoreId{0});
  EXPECT_THROW(directory.add_sharer(0x1, CoreId{0}), AssertionError);
}

TEST(Directory, SharersAscendAndCoverEveryMaskBit) {
  InclusiveDirectory directory;
  for (const int c : {5, 63, 0, 2}) {
    directory.add_sharer(0x7, CoreId{c});
  }
  EXPECT_EQ(directory.sharers(0x7),
            (std::vector<CoreId>{CoreId{0}, CoreId{2}, CoreId{5}, CoreId{63}}));
  EXPECT_EQ(directory.sharer_mask(0x7),
            (CoreMask{1} << 63) | (CoreMask{1} << 5) | 0b101U);
  EXPECT_TRUE(directory.is_shared_by(0x7, CoreId{63}));
  EXPECT_FALSE(directory.is_shared_by(0x7, CoreId{64}));
  EXPECT_THROW(directory.add_sharer(0x7, CoreId{kMaxCores}), AssertionError);
  EXPECT_THROW(directory.add_sharer(0x7, kNoCore), AssertionError);
  EXPECT_FALSE(directory.remove_sharer(0x7, CoreId{kMaxCores}));
  EXPECT_TRUE(directory.sharers(0x8).empty());
}

// `count` distinct lines from [start, ...) whose home slot at `directory`'s
// current capacity is `home` (so they form one probe chain).
std::vector<LineAddr> lines_homed_at(const InclusiveDirectory& directory,
                                     std::size_t home, LineAddr start,
                                     int count) {
  std::vector<LineAddr> lines;
  for (LineAddr line = start; static_cast<int>(lines.size()) < count; ++line) {
    if (directory.home_slot(line) == home) {
      lines.push_back(line);
    }
  }
  return lines;
}

// Random add / add-if-absent / remove sequences against a hash-map
// reference: colliding chains at the initial capacity (erases in the middle
// of a probe chain), growth across several doublings, then colliding chains
// again at the grown capacity.
TEST(Directory, MatchesMapReferenceAcrossCollisionsAndGrowth) {
  InclusiveDirectory directory;
  std::unordered_map<LineAddr, CoreMask> reference;
  std::vector<LineAddr> universe;
  Rng rng(2024);

  auto check_equal = [&] {
    ASSERT_EQ(directory.tracked_lines(), static_cast<int>(reference.size()));
    for (const LineAddr line : universe) {
      const auto it = reference.find(line);
      ASSERT_EQ(directory.sharer_mask(line),
                it == reference.end() ? CoreMask{0} : it->second)
          << "line 0x" << std::hex << line;
    }
    int walked = 0;
    directory.for_each_line([&](LineAddr line, CoreMask mask) {
      ++walked;
      const auto it = reference.find(line);
      ASSERT_TRUE(it != reference.end() && it->second == mask)
          << "line 0x" << std::hex << line;
    });
    ASSERT_EQ(walked, static_cast<int>(reference.size()));
  };
  // `ops` random operations over `pool`, with cores below `cores`.
  auto churn = [&](const std::vector<LineAddr>& pool, int ops, int cores) {
    for (int i = 0; i < ops; ++i) {
      const LineAddr line = pool[rng.next_below(pool.size())];
      const CoreId core{static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(cores)))};
      const CoreMask bit = core_bit(core);
      const CoreMask before = reference.count(line) ? reference[line] : 0;
      switch (rng.next_below(3)) {
        case 0:
          if ((before & bit) == 0) {
            directory.add_sharer(line, core);
            reference[line] = before | bit;
          }
          break;
        case 1:
          ASSERT_EQ(directory.add_sharer_if_absent(line, core),
                    (before & bit) == 0);
          reference[line] = before | bit;
          break;
        default:
          ASSERT_EQ(directory.remove_sharer(line, core), (before & bit) != 0);
          if ((before & ~bit) == 0) {
            reference.erase(line);
          } else {
            reference[line] = before & ~bit;
          }
          break;
      }
    }
  };
  auto colliding_pool = [&](LineAddr start) {
    // Two interleaved chains: lines homed at h and at h + 1 compete for the
    // same run of slots, so backward shifts must respect each home.
    const std::size_t h = directory.home_slot(start);
    std::vector<LineAddr> pool = lines_homed_at(directory, h, start, 8);
    for (const LineAddr line : lines_homed_at(
             directory, (h + 1) % directory.capacity(), start, 6)) {
      pool.push_back(line);
    }
    universe.insert(universe.end(), pool.begin(), pool.end());
    return pool;
  };

  const std::size_t initial_capacity = directory.capacity();
  const std::vector<LineAddr> chain = colliding_pool(0x1000);
  for (int round = 0; round < 40; ++round) {
    churn(chain, 25, 3);
    check_equal();
  }
  EXPECT_EQ(directory.capacity(), initial_capacity)
      << "14 lines must fit without growth";

  std::vector<LineAddr> wide;
  for (int i = 0; i < 3000; ++i) {
    wide.push_back(0x100000 + rng.next_below(1 << 20));
  }
  universe.insert(universe.end(), wide.begin(), wide.end());
  for (int round = 0; round < 30; ++round) {
    churn(wide, 400, 8);
    check_equal();
  }
  EXPECT_GE(directory.capacity(), 8 * initial_capacity);
  EXPECT_LE(2 * static_cast<std::size_t>(directory.tracked_lines()),
            directory.capacity());

  const std::vector<LineAddr> grown_chain = colliding_pool(0x7000000);
  for (int round = 0; round < 40; ++round) {
    churn(grown_chain, 25, kMaxCores);
    check_equal();
  }

  // Drain everything: each remove reports presence exactly as the map does.
  for (const LineAddr line : universe) {
    for (int c = 0; c < kMaxCores; ++c) {
      const CoreMask before = reference.count(line) ? reference[line] : 0;
      ASSERT_EQ(directory.remove_sharer(line, CoreId{c}),
                (before & core_bit(CoreId{c})) != 0);
      if (before != 0) {
        reference[line] = before & ~core_bit(CoreId{c});
        if (reference[line] == 0) {
          reference.erase(line);
        }
      }
    }
  }
  EXPECT_EQ(directory.tracked_lines(), 0);
  check_equal();
}

// --- SetSequencer ----------------------------------------------------------------

TEST(SetSequencer, FifoOrderPerSet) {
  SetSequencer seq(4, 4);
  const SetKey key{0, 5};
  seq.enqueue(key, CoreId{2});
  seq.enqueue(key, CoreId{0});
  seq.enqueue(key, CoreId{3});
  EXPECT_TRUE(seq.is_head(key, CoreId{2}));
  EXPECT_FALSE(seq.is_head(key, CoreId{0}));
  EXPECT_EQ(seq.position(key, CoreId{3}), 2);
  EXPECT_EQ(seq.queue_length(key), 3);
  seq.dequeue_head(key, CoreId{2});
  EXPECT_TRUE(seq.is_head(key, CoreId{0}));
}

TEST(SetSequencer, IndependentQueuesPerSetKey) {
  SetSequencer seq(4, 4);
  const SetKey a{0, 1};
  const SetKey b{0, 2};
  const SetKey c{1, 1};  // same physical set, different partition
  seq.enqueue(a, CoreId{0});
  seq.enqueue(b, CoreId{1});
  seq.enqueue(c, CoreId{2});
  EXPECT_EQ(seq.active_queues(), 3);
  EXPECT_TRUE(seq.is_head(a, CoreId{0}));
  EXPECT_TRUE(seq.is_head(b, CoreId{1}));
  EXPECT_TRUE(seq.is_head(c, CoreId{2}));
}

TEST(SetSequencer, QueueReleasedWhenEmpty) {
  SetSequencer seq(2, 2);
  const SetKey a{0, 1};
  seq.enqueue(a, CoreId{0});
  seq.dequeue_head(a, CoreId{0});
  EXPECT_EQ(seq.active_queues(), 0);
  EXPECT_FALSE(seq.has_queue(a));
  // The released queue is reusable for other sets.
  seq.enqueue(SetKey{0, 2}, CoreId{1});
  seq.enqueue(SetKey{0, 3}, CoreId{0});
  EXPECT_EQ(seq.active_queues(), 2);
}

TEST(SetSequencer, RemoveFromMiddle) {
  SetSequencer seq(2, 4);
  const SetKey key{0, 0};
  seq.enqueue(key, CoreId{0});
  seq.enqueue(key, CoreId{1});
  seq.enqueue(key, CoreId{2});
  seq.remove(key, CoreId{1});
  EXPECT_EQ(seq.queue_length(key), 2);
  EXPECT_TRUE(seq.is_head(key, CoreId{0}));
  EXPECT_EQ(seq.position(key, CoreId{2}), 1);
}

TEST(SetSequencer, HardwareCapacityAsserts) {
  SetSequencer seq(1, 2);
  seq.enqueue(SetKey{0, 0}, CoreId{0});
  // Second distinct set: QLT full.
  EXPECT_THROW(seq.enqueue(SetKey{0, 1}, CoreId{1}), AssertionError);
  // Queue depth full.
  seq.enqueue(SetKey{0, 0}, CoreId{1});
  EXPECT_THROW(seq.enqueue(SetKey{0, 0}, CoreId{2}), AssertionError);
  // Double enqueue of the same core.
  EXPECT_THROW(seq.enqueue(SetKey{0, 0}, CoreId{0}), AssertionError);
  // Dequeue of a non-head core.
  EXPECT_THROW(seq.dequeue_head(SetKey{0, 0}, CoreId{1}), AssertionError);
}

// Random enqueue / enqueue_if_absent / release / dequeue_head / remove /
// clear sequences against a std::map of std::deques; release() also hits
// cores that are not queued. Core ids include 63, the top bit of the QLT
// member masks. Every query (may_claim included) is checked after every
// step, and rejected
// operations (a duplicate enqueue, a dequeue of a non-head) must leave the
// state unchanged.
TEST(SetSequencer, MatchesDequeReference) {
  const SetKey keys[] = {{0, 1}, {0, 2}, {1, 1}, {2, 7}};
  const CoreId cores[] = {CoreId{0}, CoreId{1}, CoreId{5}, CoreId{63}};
  SetSequencer seq(4, 4);
  std::map<SetKey, std::deque<CoreId>> reference;
  Rng rng(4711);
  auto check = [&](int step) {
    int live = 0;
    for (const SetKey& key : keys) {
      const auto it = reference.find(key);
      const bool queued = it != reference.end();
      live += queued ? 1 : 0;
      ASSERT_EQ(seq.has_queue(key), queued) << "step " << step;
      ASSERT_EQ(seq.queue_length(key),
                queued ? static_cast<int>(it->second.size()) : 0)
          << "step " << step;
      for (const CoreId core : cores) {
        int expected = -1;
        if (queued) {
          const auto pos =
              std::find(it->second.begin(), it->second.end(), core);
          if (pos != it->second.end()) {
            expected = static_cast<int>(pos - it->second.begin());
          }
        }
        ASSERT_EQ(seq.position(key, core), expected)
            << "step " << step << " " << to_string(core);
        ASSERT_EQ(seq.is_queued(key, core), expected >= 0) << "step " << step;
        ASSERT_EQ(seq.is_head(key, core), expected == 0) << "step " << step;
        ASSERT_EQ(seq.may_claim(key, core), !queued || expected == 0)
            << "step " << step;
      }
    }
    ASSERT_EQ(seq.active_queues(), live) << "step " << step;
  };
  for (int step = 0; step < 20000; ++step) {
    const SetKey key = keys[rng.next_below(std::size(keys))];
    const CoreId core = cores[rng.next_below(std::size(cores))];
    auto it = reference.find(key);
    const std::uint64_t op = rng.next_below(100);
    const bool present =
        it != reference.end() &&
        std::find(it->second.begin(), it->second.end(), core) !=
            it->second.end();
    if (op < 25) {
      if (present) {
        EXPECT_THROW(seq.enqueue(key, core), AssertionError);
      } else {
        seq.enqueue(key, core);
        reference[key].push_back(core);
      }
    } else if (op < 45) {
      EXPECT_EQ(seq.enqueue_if_absent(key, core), !present)
          << "step " << step;
      if (!present) {
        reference[key].push_back(core);
      }
    } else if (op < 60) {
      // release() of any core, queued or not: pops the head, erases from
      // the middle, or leaves the queue as it is.
      seq.release(key, core);
      if (present) {
        it->second.erase(
            std::find(it->second.begin(), it->second.end(), core));
      }
    } else if (op < 75) {
      if (it != reference.end()) {
        const CoreId head = it->second.front();
        if (core != head) {
          EXPECT_THROW(seq.dequeue_head(key, core), AssertionError);
        }
        seq.dequeue_head(key, head);
        it->second.pop_front();
      }
    } else if (op < 99) {
      if (it != reference.end()) {
        auto& queue = it->second;
        const auto victim = queue.begin() + static_cast<std::ptrdiff_t>(
                                                rng.next_below(queue.size()));
        seq.remove(key, *victim);
        queue.erase(victim);
      }
    } else {
      seq.clear();
      reference.clear();
      it = reference.end();
    }
    if (it != reference.end() && it->second.empty()) {
      reference.erase(it);
    }
    check(step);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// --- PartitionedLlc ---------------------------------------------------------------

struct LlcHarness {
  LlcConfig config;
  mem::FixedLatencyBackend dram;
  PartitionedLlc llc;

  LlcHarness(ContentionMode mode, int sets, int ways, int sharers,
             LlcConfig base = LlcConfig{})
      : config(base),
        dram(mem::DramConfig{}),
        llc(config, make_map(config, sets, ways, sharers), mode, 4, dram) {}

  static PartitionMap make_map(const LlcConfig& config, int sets, int ways,
                               int sharers) {
    std::vector<CoreId> cores;
    for (int c = 0; c < sharers; ++c) {
      cores.emplace_back(c);
    }
    return make_shared_partition(config.geometry, cores, sets, ways);
  }
};

TEST(PartitionedLlc, MissFillsAndHits) {
  LlcHarness h(ContentionMode::kBestEffort, 4, 2, 2);
  const auto miss = h.llc.handle_request(CoreId{0}, 0x10, 0);
  EXPECT_EQ(miss.status, RequestOutcome::Status::kFilled);
  EXPECT_TRUE(h.llc.directory().is_shared_by(0x10, CoreId{0}));
  const auto hit = h.llc.handle_request(CoreId{0}, 0x10, 50);
  EXPECT_EQ(hit.status, RequestOutcome::Status::kHit);
  EXPECT_EQ(h.llc.stats().fills, 1);
  EXPECT_EQ(h.llc.stats().hit_presentations, 1);
}

TEST(PartitionedLlc, FullSetWithOwnedVictimBlocksAndBackInvalidates) {
  LlcHarness h(ContentionMode::kBestEffort, 1, 2, 2);
  h.llc.preload(0x1, {CoreId{1}}, false);
  h.llc.preload(0x3, {CoreId{1}}, false);
  const auto blocked = h.llc.handle_request(CoreId{0}, 0x5, 0);
  EXPECT_EQ(blocked.status, RequestOutcome::Status::kBlocked);
  ASSERT_TRUE(blocked.back_invalidation.has_value());
  EXPECT_EQ(blocked.back_invalidation->line, 0x1u);  // LRU victim
  EXPECT_EQ(blocked.back_invalidation->owners, core_bit(CoreId{1}));
  EXPECT_TRUE(h.llc.has_pending_request(CoreId{0}));
  // Retry before the write-back: still blocked, no *new* eviction (supply
  // covers demand).
  const auto retry = h.llc.handle_request(CoreId{0}, 0x5, 200);
  EXPECT_EQ(retry.status, RequestOutcome::Status::kBlocked);
  EXPECT_FALSE(retry.back_invalidation.has_value());
  // Freeing write-back arrives; the retry now fills.
  const auto wb = h.llc.handle_writeback(CoreId{1}, 0x1, false, true, 250);
  EXPECT_TRUE(wb.freed_entry);
  const auto filled = h.llc.handle_request(CoreId{0}, 0x5, 400);
  EXPECT_EQ(filled.status, RequestOutcome::Status::kFilled);
  EXPECT_FALSE(h.llc.has_pending_request(CoreId{0}));
  h.llc.check_invariants();
}

TEST(PartitionedLlc, UnownedVictimFreesWithinTheSlot) {
  LlcHarness h(ContentionMode::kBestEffort, 1, 2, 2);
  h.llc.preload(0x1, {}, false);  // no private copies
  h.llc.preload(0x3, {}, true);   // dirty, unowned
  const auto outcome = h.llc.handle_request(CoreId{0}, 0x5, 0);
  EXPECT_EQ(outcome.status, RequestOutcome::Status::kFilled)
      << "an unowned victim must not cost extra slots";
  EXPECT_EQ(h.llc.stats().immediate_frees, 1);
}

TEST(PartitionedLlc, SequencerEnforcesArrivalOrder) {
  LlcHarness h(ContentionMode::kSetSequencer, 1, 2, 3);
  h.llc.preload(0x1, {CoreId{2}}, false);
  h.llc.preload(0x3, {CoreId{2}}, false);
  // c0 then c1 block on the same set.
  (void)h.llc.handle_request(CoreId{0}, 0x5, 0);
  (void)h.llc.handle_request(CoreId{1}, 0x7, 50);
  EXPECT_TRUE(h.llc.sequencer().is_head(h.llc.key_for(CoreId{0}, 0x5),
                                        CoreId{0}));
  // The victim's write-back frees an entry; c1 retries first but is not at
  // the head -> still blocked.
  (void)h.llc.handle_writeback(CoreId{2}, 0x1, false, true, 100);
  const auto c1_retry = h.llc.handle_request(CoreId{1}, 0x7, 150);
  EXPECT_EQ(c1_retry.status, RequestOutcome::Status::kBlocked);
  // c0 (head) takes it.
  const auto c0_retry = h.llc.handle_request(CoreId{0}, 0x5, 200);
  EXPECT_EQ(c0_retry.status, RequestOutcome::Status::kFilled);
  // Now c1 is head; the second eviction (triggered at c1's first blocked
  // presentation) eventually frees the other way.
  (void)h.llc.handle_writeback(CoreId{2}, 0x3, false, true, 250);
  const auto c1_fill = h.llc.handle_request(CoreId{1}, 0x7, 300);
  EXPECT_EQ(c1_fill.status, RequestOutcome::Status::kFilled);
  h.llc.check_invariants();
}

TEST(PartitionedLlc, BestEffortAllowsStealAndCountsIt) {
  LlcHarness h(ContentionMode::kBestEffort, 1, 2, 3);
  h.llc.preload(0x1, {CoreId{2}}, false);
  h.llc.preload(0x3, {CoreId{2}}, false);
  (void)h.llc.handle_request(CoreId{0}, 0x5, 0);   // older waiter
  (void)h.llc.handle_request(CoreId{1}, 0x7, 50);  // younger waiter
  (void)h.llc.handle_writeback(CoreId{2}, 0x1, false, true, 100);
  const auto steal = h.llc.handle_request(CoreId{1}, 0x7, 150);
  EXPECT_EQ(steal.status, RequestOutcome::Status::kFilled);
  EXPECT_EQ(h.llc.stats().steals, 1);
}

TEST(PartitionedLlc, VoluntaryWritebackMergesDirtyData) {
  LlcHarness h(ContentionMode::kBestEffort, 4, 2, 2);
  (void)h.llc.handle_request(CoreId{0}, 0x10, 0);
  const auto wb = h.llc.handle_writeback(CoreId{0}, 0x10, true, false, 100);
  EXPECT_FALSE(wb.freed_entry);
  const int way = h.llc.find_way(CoreId{0}, 0x10);
  ASSERT_GE(way, 0);
  const auto entry = h.llc.entry(h.llc.key_for(CoreId{0}, 0x10).physical_set,
                                 way);
  EXPECT_TRUE(entry.dirty);
  EXPECT_TRUE(entry.sharers.empty());
  h.llc.check_invariants();
}

TEST(PartitionedLlc, MultiSharerBackInvalidationNeedsAllAcks) {
  LlcHarness h(ContentionMode::kBestEffort, 1, 2, 3);
  h.llc.preload(0x1, {CoreId{2}, CoreId{1}}, false);
  h.llc.preload(0x3, {CoreId{1}}, false);
  const auto blocked = h.llc.handle_request(CoreId{0}, 0x5, 0);
  ASSERT_TRUE(blocked.back_invalidation.has_value());
  const CoreMask owners = blocked.back_invalidation->owners;
  EXPECT_EQ(owners, core_bit(CoreId{1}) | core_bit(CoreId{2}));
  // Owners are delivered lowest bit first: ascending core order, whatever
  // order the sharers were recorded in.
  std::vector<CoreId> delivered;
  for (CoreMask m = owners; m != 0; m &= m - 1) {
    delivered.push_back(lowest_core(m));
  }
  EXPECT_EQ(delivered, (std::vector<CoreId>{CoreId{1}, CoreId{2}}));
  EXPECT_EQ(delivered, h.llc.directory().sharers(0x1));
  EXPECT_FALSE(
      h.llc.handle_writeback(CoreId{1}, 0x1, false, true, 50).freed_entry);
  EXPECT_TRUE(
      h.llc.handle_writeback(CoreId{2}, 0x1, false, true, 100).freed_entry);
  h.llc.check_invariants();
}

TEST(PartitionedLlc, PendingLineExcludedFromHits) {
  LlcHarness h(ContentionMode::kBestEffort, 1, 2, 3);
  h.llc.preload(0x1, {CoreId{2}}, false);
  h.llc.preload(0x3, {CoreId{2}}, false);
  // c0's miss selects 0x1 as victim (pending invalidation).
  (void)h.llc.handle_request(CoreId{0}, 0x5, 0);
  // c1 requests the very line being evicted: must be treated as a miss.
  const auto outcome = h.llc.handle_request(CoreId{1}, 0x1, 50);
  EXPECT_EQ(outcome.status, RequestOutcome::Status::kBlocked);
  h.llc.check_invariants();
}

TEST(PartitionedLlc, SilentEvictionKeepsLineDropsSharer) {
  LlcHarness h(ContentionMode::kBestEffort, 4, 2, 2);
  (void)h.llc.handle_request(CoreId{0}, 0x10, 0);
  h.llc.notify_silent_eviction(CoreId{0}, 0x10);
  EXPECT_GE(h.llc.find_way(CoreId{0}, 0x10), 0);
  EXPECT_EQ(h.llc.directory().sharer_count(0x10), 0);
  EXPECT_THROW(h.llc.notify_silent_eviction(CoreId{0}, 0x10),
               AssertionError);
}

TEST(PartitionedLlc, RetryWithDifferentLineAsserts) {
  LlcHarness h(ContentionMode::kBestEffort, 1, 1, 2);
  h.llc.preload(0x1, {CoreId{1}}, false);
  (void)h.llc.handle_request(CoreId{0}, 0x3, 0);
  EXPECT_THROW(h.llc.handle_request(CoreId{0}, 0x5, 50), AssertionError);
}

TEST(PartitionedLlc, DropPendingRequestCleansSequencer) {
  LlcHarness h(ContentionMode::kSetSequencer, 1, 1, 2);
  h.llc.preload(0x1, {CoreId{1}}, false);
  (void)h.llc.handle_request(CoreId{0}, 0x3, 0);
  EXPECT_TRUE(h.llc.has_pending_request(CoreId{0}));
  h.llc.drop_pending_request(CoreId{0});
  EXPECT_FALSE(h.llc.has_pending_request(CoreId{0}));
  EXPECT_EQ(h.llc.sequencer().active_queues(), 0);
  h.llc.check_invariants();
}

TEST(PartitionedLlc, InvariantsHoldWithSequencerWaiters) {
  LlcHarness h(ContentionMode::kSetSequencer, 1, 2, 3);
  h.llc.preload(0x1, {CoreId{2}}, false);
  h.llc.preload(0x3, {CoreId{2}}, false);
  (void)h.llc.handle_request(CoreId{0}, 0x5, 0);
  (void)h.llc.handle_request(CoreId{1}, 0x7, 50);
  const SetKey key = h.llc.key_for(CoreId{0}, 0x5);
  ASSERT_EQ(h.llc.sequencer().queue_length(key), 2);
  h.llc.check_invariants();
  h.llc.drop_pending_request(CoreId{0});
  EXPECT_EQ(h.llc.sequencer().queue_length(key), 1);
  h.llc.check_invariants();
}

TEST(PartitionedLlc, RejectsMoreCoresThanTheDirectoryHolds) {
  LlcConfig config;
  mem::FixedLatencyBackend dram(mem::DramConfig{});
  PartitionMap map(config.geometry);
  map.add_partition(PartitionSpec{0, 1, 0, 1}, {CoreId{0}});
  try {
    PartitionedLlc llc(config, std::move(map), ContentionMode::kBestEffort,
                       kMaxCores + 1, dram);
    FAIL() << "a 65-core LLC was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("64-core"), std::string::npos)
        << e.what();
  }
}

TEST(PartitionedLlc, RejectsMismatchedPartitionGeometry) {
  LlcConfig config;
  mem::DramConfig dram_config;
  mem::FixedLatencyBackend dram(dram_config);
  PartitionMap map(mem::CacheGeometry{16, 16, 64});  // wrong set count
  map.add_partition(PartitionSpec{0, 1, 0, 1}, {CoreId{0}});
  EXPECT_THROW(
      PartitionedLlc(config, std::move(map), ContentionMode::kBestEffort, 1,
                     dram),
      ConfigError);
}

}  // namespace
}  // namespace psllc::llc
