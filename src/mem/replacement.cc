#include "mem/replacement.h"

#include <algorithm>
#include <numeric>

#include "common/rng.h"

namespace psllc::mem {

namespace {

/// True least-recently-used: maintains an exact recency stack.
class LruPolicy final : public ReplacementPolicy {
 public:
  explicit LruPolicy(int ways) : ReplacementPolicy(ways) {
    stack_.resize(static_cast<std::size_t>(ways));
    // Most recent at front; start with way order 0..w-1 (0 is MRU).
    std::iota(stack_.begin(), stack_.end(), 0);
  }

  void on_insert(int way) override { touch(way); }
  void on_access(int way) override { touch(way); }

  void on_invalidate(int way) override {
    // Move to LRU position so a freed way is reused naturally.
    auto it = std::find(stack_.begin(), stack_.end(), way);
    PSLLC_ASSERT(it != stack_.end(), "way " << way << " not in LRU stack");
    stack_.erase(it);
    stack_.push_back(way);
  }

  int select_victim(const std::vector<bool>& eligible) override {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (eligible[static_cast<std::size_t>(*it)]) {
        return *it;
      }
    }
    return -1;
  }

  std::unique_ptr<ReplacementPolicy> clone() const override {
    return std::make_unique<LruPolicy>(*this);
  }

 private:
  void touch(int way) {
    auto it = std::find(stack_.begin(), stack_.end(), way);
    PSLLC_ASSERT(it != stack_.end(), "way " << way << " not in LRU stack");
    stack_.erase(it);
    stack_.insert(stack_.begin(), way);
  }

  std::vector<int> stack_;  // front = MRU, back = LRU
};

/// FIFO: evicts in insertion order; hits do not refresh.
class FifoPolicy final : public ReplacementPolicy {
 public:
  explicit FifoPolicy(int ways) : ReplacementPolicy(ways) {
    order_.resize(static_cast<std::size_t>(ways));
    std::iota(order_.begin(), order_.end(), 0);
  }

  void on_insert(int way) override {
    auto it = std::find(order_.begin(), order_.end(), way);
    PSLLC_ASSERT(it != order_.end(), "way " << way << " not in FIFO order");
    order_.erase(it);
    order_.push_back(way);  // newest at back
  }

  void on_access(int) override {}  // FIFO ignores hits

  void on_invalidate(int way) override {
    auto it = std::find(order_.begin(), order_.end(), way);
    PSLLC_ASSERT(it != order_.end(), "way " << way << " not in FIFO order");
    order_.erase(it);
    order_.insert(order_.begin(), way);  // oldest: reused first
  }

  int select_victim(const std::vector<bool>& eligible) override {
    for (int way : order_) {
      if (eligible[static_cast<std::size_t>(way)]) {
        return way;
      }
    }
    return -1;
  }

  std::unique_ptr<ReplacementPolicy> clone() const override {
    return std::make_unique<FifoPolicy>(*this);
  }

 private:
  std::vector<int> order_;  // front = oldest
};

/// Uniform random victim among eligible ways (deterministic stream).
class RandomPolicy final : public ReplacementPolicy {
 public:
  RandomPolicy(int ways, std::uint64_t seed)
      : ReplacementPolicy(ways), rng_(seed) {}

  void on_insert(int) override {}
  void on_access(int) override {}
  void on_invalidate(int) override {}

  int select_victim(const std::vector<bool>& eligible) override {
    int count = 0;
    for (bool e : eligible) {
      count += e ? 1 : 0;
    }
    if (count == 0) {
      return -1;
    }
    auto pick = static_cast<int>(rng_.next_below(
        static_cast<std::uint64_t>(count)));
    for (int way = 0; way < ways_; ++way) {
      if (eligible[static_cast<std::size_t>(way)] && pick-- == 0) {
        return way;
      }
    }
    PSLLC_ASSERT(false, "random victim selection fell through");
    return -1;
  }

  std::unique_ptr<ReplacementPolicy> clone() const override {
    return std::make_unique<RandomPolicy>(*this);
  }

 private:
  Rng rng_;
};

/// Not-most-recently-used: random among eligible ways except the MRU one
/// (unless the MRU way is the only eligible way).
class NmruPolicy final : public ReplacementPolicy {
 public:
  NmruPolicy(int ways, std::uint64_t seed)
      : ReplacementPolicy(ways), rng_(seed) {}

  void on_insert(int way) override { mru_ = way; }
  void on_access(int way) override { mru_ = way; }
  void on_invalidate(int way) override {
    if (mru_ == way) {
      mru_ = -1;
    }
  }

  int select_victim(const std::vector<bool>& eligible) override {
    int count = 0;
    int only = -1;
    for (int way = 0; way < ways_; ++way) {
      if (eligible[static_cast<std::size_t>(way)]) {
        ++count;
        only = way;
      }
    }
    if (count == 0) {
      return -1;
    }
    if (count == 1) {
      return only;
    }
    // Exclude the MRU way if it is eligible.
    const bool mru_eligible =
        mru_ >= 0 && eligible[static_cast<std::size_t>(mru_)];
    const int pool = mru_eligible ? count - 1 : count;
    auto pick =
        static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(pool)));
    for (int way = 0; way < ways_; ++way) {
      if (!eligible[static_cast<std::size_t>(way)] || way == mru_) {
        continue;
      }
      if (pick-- == 0) {
        return way;
      }
    }
    PSLLC_ASSERT(false, "NMRU victim selection fell through");
    return -1;
  }

  std::unique_ptr<ReplacementPolicy> clone() const override {
    return std::make_unique<NmruPolicy>(*this);
  }

 private:
  Rng rng_;
  int mru_ = -1;
};

/// Tree pseudo-LRU over a power-of-two number of ways (rounded up
/// internally; phantom ways are never eligible).
class TreePlruPolicy final : public ReplacementPolicy {
 public:
  explicit TreePlruPolicy(int ways) : ReplacementPolicy(ways) {
    leaves_ = 1;
    while (leaves_ < ways) {
      leaves_ *= 2;
    }
    bits_.assign(static_cast<std::size_t>(leaves_), false);  // index 1-based
  }

  void on_insert(int way) override { touch(way); }
  void on_access(int way) override { touch(way); }
  void on_invalidate(int) override {}

  int select_victim(const std::vector<bool>& eligible) override {
    // Walk the tree following the PLRU bits; if the chosen leaf is not
    // eligible, fall back to the first eligible way (hardware would
    // typically mask the tree, which behaves equivalently for our purposes).
    int node = 1;
    while (node < leaves_) {
      node = 2 * node + (bits_[static_cast<std::size_t>(node)] ? 1 : 0);
    }
    const int way = node - leaves_;
    if (way < ways_ && eligible[static_cast<std::size_t>(way)]) {
      return way;
    }
    for (int w = 0; w < ways_; ++w) {
      if (eligible[static_cast<std::size_t>(w)]) {
        return w;
      }
    }
    return -1;
  }

  std::unique_ptr<ReplacementPolicy> clone() const override {
    return std::make_unique<TreePlruPolicy>(*this);
  }

 private:
  void touch(int way) {
    // Flip the bits along the path so they point away from `way`.
    int node = leaves_ + way;
    while (node > 1) {
      const int parent = node / 2;
      bits_[static_cast<std::size_t>(parent)] = (node == 2 * parent);
      node = parent;
    }
  }

  int leaves_ = 1;
  std::vector<bool> bits_;
};

}  // namespace

std::unique_ptr<ReplacementPolicy> make_replacement_policy(
    ReplacementKind kind, int ways, std::uint64_t seed) {
  switch (kind) {
    case ReplacementKind::kLru:
      return std::make_unique<LruPolicy>(ways);
    case ReplacementKind::kFifo:
      return std::make_unique<FifoPolicy>(ways);
    case ReplacementKind::kRandom:
      return std::make_unique<RandomPolicy>(ways, seed);
    case ReplacementKind::kNmru:
      return std::make_unique<NmruPolicy>(ways, seed);
    case ReplacementKind::kTreePlru:
      return std::make_unique<TreePlruPolicy>(ways);
  }
  PSLLC_ASSERT(false, "unknown replacement kind");
  return nullptr;
}

}  // namespace psllc::mem
