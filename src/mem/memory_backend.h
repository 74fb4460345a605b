// Pluggable memory-backend interface behind the LLC.
//
// The slot body (core/slot_body.h) charges every LLC fill and write-back to
// the requester's TDM slot; SystemConfig::validate enforces
// `slot_width >= llc_lookup + backend.worst_case_latency()`, so *any*
// backend that honors the WCL contract below preserves the paper's bounds.
//
// WCL contract every backend must export:
//  * worst_case_latency() upper-bounds the latency returned by every single
//    read()/write() call, for every address stream and access time — the
//    base class asserts this on each access, and the conformance battery in
//    tests/test_dram.cc checks it under randomized streams;
//  * worst_case_latency() is a pure function of the configuration (it never
//    changes as state accumulates), so SystemConfig::validate can evaluate
//    it before the run;
//  * accesses are presented in non-decreasing `now` order (the TDM bus
//    serializes them); backends may keep internal clocks keyed on `now`.
//
// Thread safety is by ownership, not locking: a backend instance is owned
// by exactly one core::BasicSystem and is neither copied nor shared.
// DramConfig::make_backend() builds a fresh one per system, which is how
// cells replayed on different threads stay bit-identical to a serial run.
// The method bodies live in this header (not the .cc) so that call sites
// holding a pointer to a concrete `final` backend — the devirtualized LLC
// instantiations sim::replay() runs — can inline the whole access path;
// the virtual interface remains the cold-path/conformance entry.
#ifndef PSLLC_MEM_MEMORY_BACKEND_H_
#define PSLLC_MEM_MEMORY_BACKEND_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "mem/dram.h"

namespace psllc::mem {

/// Access/behavior counters every backend maintains. Backends ignore the
/// fields their model has no notion of (they stay 0).
struct MemoryCounters {
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  // kBankRow
  std::int64_t row_hits = 0;
  std::int64_t row_misses = 0;
  // kWriteQueue
  std::int64_t queued_writes = 0;   ///< writes accepted into the queue
  std::int64_t drained_writes = 0;  ///< queued writes retired to DRAM
  std::int64_t write_stalls = 0;    ///< back-pressure events (queue full)
  std::int64_t max_queue_depth = 0;
  /// Worst single-access latency observed so far (any backend).
  Cycle max_latency = 0;

  [[nodiscard]] std::int64_t accesses() const { return reads + writes; }

  [[nodiscard]] bool operator==(const MemoryCounters&) const = default;
};

class MemoryBackend {
 public:
  virtual ~MemoryBackend() = default;
  MemoryBackend(const MemoryBackend&) = delete;
  MemoryBackend& operator=(const MemoryBackend&) = delete;

  /// Latency to read the line at `line` (fills an LLC miss) at time `now`.
  Cycle read(LineAddr line, Cycle now) {
    ++counters_.reads;
    return record(service_read(line, now), now);
  }

  /// Latency to write the line at `line` (dirty LLC eviction) at time
  /// `now`. The system model treats LLC->DRAM writes as buffered off the
  /// critical path, but the latency is still modeled, bounded by the WCL
  /// contract, and counted.
  Cycle write(LineAddr line, Cycle now) {
    ++counters_.writes;
    return record(service_write(line, now), now);
  }

  /// Upper bound on any single read()/write() latency; constant per
  /// configuration. The TDM slot must absorb llc_lookup + this.
  [[nodiscard]] virtual Cycle worst_case_latency() const = 0;

  /// Stable identifier ("fixed", "bankrow", "writequeue").
  [[nodiscard]] virtual const char* name() const = 0;

  [[nodiscard]] const MemoryCounters& counters() const { return counters_; }
  [[nodiscard]] const DramConfig& config() const { return config_; }

  /// Writes still buffered inside the backend (0 for backends without a
  /// write queue). Exposed so observability surfaces (MemoryView) need no
  /// downcast to the concrete backend.
  [[nodiscard]] virtual int pending_queue_depth() const { return 0; }

 protected:
  explicit MemoryBackend(const DramConfig& config) : config_(config) {
    config_.validate();
  }

  virtual Cycle service_read(LineAddr line, Cycle now) = 0;
  virtual Cycle service_write(LineAddr line, Cycle now) = 0;

  DramConfig config_;
  MemoryCounters counters_;

 private:
  Cycle record(Cycle latency, Cycle now) {
    // The TDM bus serializes memory traffic, so accesses arrive in
    // non-decreasing time order; lazy internal clocks rely on it.
    PSLLC_ASSERT(last_access_ == kNoCycle || now >= last_access_,
                 "memory access times must be non-decreasing: " << now
                     << " after " << last_access_);
    last_access_ = now;
    // The WCL contract: no single access may exceed the advertised bound.
    PSLLC_ASSERT(latency <= worst_case_latency(),
                 name() << " backend returned latency " << latency
                        << " above its worst_case_latency() "
                        << worst_case_latency());
    counters_.max_latency = std::max(counters_.max_latency, latency);
    return latency;
  }

  Cycle last_access_ = kNoCycle;
};

/// The paper's system model: every access costs `fixed_latency`.
class FixedLatencyBackend final : public MemoryBackend {
 public:
  explicit FixedLatencyBackend(const DramConfig& config)
      : MemoryBackend(config) {}

  [[nodiscard]] Cycle worst_case_latency() const override {
    return config_.fixed_latency;
  }
  [[nodiscard]] const char* name() const override { return "fixed"; }

 protected:
  Cycle service_read(LineAddr /*line*/, Cycle /*now*/) override {
    return config_.fixed_latency;
  }
  Cycle service_write(LineAddr /*line*/, Cycle /*now*/) override {
    return config_.fixed_latency;
  }
};

/// Bank/row-conflict model. Open-page keeps the last row of each bank open
/// (hit: row_hit_latency, conflict: row_miss_latency); closed-page
/// auto-precharges, so every access costs closed_page_latency — a lower,
/// access-independent worst case bought by giving up row hits. The bank
/// mapping is selectable (row- vs line-interleaved).
class BankRowBackend final : public MemoryBackend {
 public:
  explicit BankRowBackend(const DramConfig& config) : MemoryBackend(config) {
    open_row_.assign(static_cast<std::size_t>(config_.num_banks), -1);
  }

  [[nodiscard]] Cycle worst_case_latency() const override {
    return config_.page_policy == PagePolicy::kOpenPage
               ? config_.row_miss_latency
               : config_.closed_page_latency;
  }
  [[nodiscard]] const char* name() const override { return "bankrow"; }

  /// Bank index of `line` under the configured mapping (exposed so the
  /// conformance battery can check accounting against a reference model).
  [[nodiscard]] int bank_of(LineAddr line) const {
    const auto banks = static_cast<LineAddr>(config_.num_banks);
    if (config_.bank_mapping == BankMapping::kLineInterleaved) {
      return static_cast<int>(line % banks);
    }
    const auto lines_per_row =
        static_cast<LineAddr>(config_.row_bytes / config_.line_bytes);
    return static_cast<int>((line / lines_per_row) % banks);
  }
  /// Row index of `line` within its bank.
  [[nodiscard]] std::int64_t row_of(LineAddr line) const {
    const auto banks = static_cast<LineAddr>(config_.num_banks);
    const auto lines_per_row =
        static_cast<LineAddr>(config_.row_bytes / config_.line_bytes);
    if (config_.bank_mapping == BankMapping::kLineInterleaved) {
      // Consecutive lines stripe across banks; a bank's consecutive lines
      // (stride num_banks) fill its rows in order.
      return static_cast<std::int64_t>((line / banks) / lines_per_row);
    }
    return static_cast<std::int64_t>((line / lines_per_row) / banks);
  }

 protected:
  Cycle service_read(LineAddr line, Cycle /*now*/) override {
    return service(line);
  }
  Cycle service_write(LineAddr line, Cycle /*now*/) override {
    return service(line);
  }

 private:
  Cycle service(LineAddr line) {
    if (config_.page_policy == PagePolicy::kClosedPage) {
      // Auto-precharge: the bank is always closed when the access arrives,
      // so every access activates its row and costs the same. Accounted as
      // a row miss (no row is ever found open).
      ++counters_.row_misses;
      return config_.closed_page_latency;
    }
    const auto bank = static_cast<std::size_t>(bank_of(line));
    const std::int64_t row = row_of(line);
    if (open_row_[bank] == row) {
      ++counters_.row_hits;
      return config_.row_hit_latency;
    }
    ++counters_.row_misses;
    open_row_[bank] = row;
    return config_.row_miss_latency;
  }

  std::vector<std::int64_t> open_row_;  ///< per bank; -1 = closed
};

/// Batched write-queue model: writes buffer in a bounded FIFO at
/// wq_enqueue_latency and retire to DRAM in the background, one per
/// wq_drain_period while the queue is non-empty; reads bypass the queue
/// (the controller prioritizes them; a queued copy of the line is
/// forwarded latency-neutrally) and cost fixed_latency. Back-pressure is
/// the bounded worst-case term: a write arriving at a full queue forces
/// the controller to drain the head *synchronously* — one full DRAM write
/// on the critical path — before enqueueing, so even a stream that writes
/// faster than the background drain rate forever pays a fixed per-access
/// premium rather than an ever-growing wait:
///   worst_case_latency() = max(fixed_latency,                // reads
///                              fixed_latency + wq_enqueue_latency).
class WriteQueueBackend final : public MemoryBackend {
 public:
  explicit WriteQueueBackend(const DramConfig& config)
      : MemoryBackend(config) {}

  [[nodiscard]] Cycle worst_case_latency() const override {
    // Reads pay fixed_latency; a write stalled on a full queue pays one
    // synchronous head drain (fixed_latency) plus its own enqueue.
    return config_.fixed_latency + config_.wq_enqueue_latency;
  }
  [[nodiscard]] const char* name() const override { return "writequeue"; }

  /// Writes still buffered (not yet drained) as of the last access.
  [[nodiscard]] int pending_queue_depth() const override {
    return static_cast<int>(queue_.size());
  }

 protected:
  Cycle service_read(LineAddr /*line*/, Cycle now) override {
    drain(now);
    // Reads bypass the queue (the controller prioritizes them; a buffered
    // copy of the line is forwarded at no extra cost).
    return config_.fixed_latency;
  }
  Cycle service_write(LineAddr /*line*/, Cycle now) override {
    drain(now);
    Cycle latency = config_.wq_enqueue_latency;
    Cycle server_free = queue_.empty() ? now : queue_.back();
    if (static_cast<int>(queue_.size()) >= config_.wq_capacity) {
      // Back-pressure: the controller frees a slot by draining the head
      // synchronously — one full DRAM write on the critical path. This
      // keeps the per-access cost bounded even when writes arrive faster
      // than the background drain rate forever (a wait-for-background-drain
      // model would accumulate unbounded stalls under sustained overload).
      // The background schedule then restarts behind the synchronous write.
      queue_.pop_front();
      ++counters_.drained_writes;
      ++counters_.write_stalls;
      latency += config_.fixed_latency;
      Cycle completion = now + config_.fixed_latency;
      for (Cycle& queued : queue_) {
        completion += config_.wq_drain_period;
        queued = completion;
      }
      server_free = completion;
    }
    // The background server retires one write per period, starting when the
    // previous drain finishes (or immediately on an idle queue).
    queue_.push_back(std::max(now, server_free) + config_.wq_drain_period);
    PSLLC_AUDIT(static_cast<int>(queue_.size()) <= config_.wq_capacity,
                "write queue depth " << queue_.size() << " exceeds capacity "
                                     << config_.wq_capacity);
    ++counters_.queued_writes;
    counters_.max_queue_depth = std::max(
        counters_.max_queue_depth, static_cast<std::int64_t>(queue_.size()));
    return latency;
  }

 private:
  /// Retires every queued write whose drain completed by `now`.
  void drain(Cycle now) {
    while (!queue_.empty() && queue_.front() <= now) {
      queue_.pop_front();
      ++counters_.drained_writes;
    }
  }

  /// Drain-completion times, non-decreasing (one entry per queued write).
  std::deque<Cycle> queue_;
};

/// Narrow read-only query surface over a memory backend: counters, the
/// WCL-contract bound, identity, and queue observability. This is what
/// core::System::memory() hands out — consumers (stress tests, benches)
/// only ever query; mutation (read()/write()) stays with the LLC inside
/// the slot body (core/slot_body.h).
class MemoryView {
 public:
  explicit MemoryView(const MemoryBackend& backend) : backend_(&backend) {}

  [[nodiscard]] const MemoryCounters& counters() const {
    return backend_->counters();
  }
  [[nodiscard]] Cycle worst_case_latency() const {
    return backend_->worst_case_latency();
  }
  [[nodiscard]] const char* name() const { return backend_->name(); }
  [[nodiscard]] const DramConfig& config() const {
    return backend_->config();
  }
  [[nodiscard]] int pending_queue_depth() const {
    return backend_->pending_queue_depth();
  }

 private:
  const MemoryBackend* backend_;  ///< borrowed; the owning engine outlives it
};

/// Factory behind DramConfig::make_backend(). Validates `config` first.
[[nodiscard]] std::unique_ptr<MemoryBackend> make_memory_backend(
    const DramConfig& config);

/// One labeled configuration per behaviorally distinct backend variant
/// (closed-page ignores the bank mapping — every access costs the same —
/// so only the open-page mappings are enumerated separately). This is the
/// single source the conformance battery (tests/test_dram.cc), the
/// per-backend WCL property grid (tests/test_wcl_bounds_property.cc) and
/// the ablation_dram_backend bench all sweep — a backend added here is
/// covered everywhere automatically.
struct BackendVariant {
  std::string label;
  DramConfig config;
};
[[nodiscard]] std::vector<BackendVariant> registered_backend_variants();

}  // namespace psllc::mem

#endif  // PSLLC_MEM_MEMORY_BACKEND_H_
