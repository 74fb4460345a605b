// Per-request latency bookkeeping.
//
// Two latencies are recorded per LLC request, matching the paper's
// measurement (Section 5.1):
//  * service latency — from the start of the slot in which the request is
//    FIRST presented on the bus until the response completes. This is what
//    Theorems 4.7/4.8 bound and what Figure 7 plots as "observed WCL".
//  * total latency — from the moment the L2 miss enqueued the request in
//    the PRB until completion (adds the initial wait for a slot).
#ifndef PSLLC_CORE_REQUEST_TRACKER_H_
#define PSLLC_CORE_REQUEST_TRACKER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace psllc::core {

struct RequestRecord {
  CoreId core;
  LineAddr line = 0;
  AccessType access = AccessType::kRead;
  Cycle issued = kNoCycle;           ///< entered the PRB
  Cycle first_presented = kNoCycle;  ///< slot start of first bus appearance
  Cycle completed = kNoCycle;
  // psllc-lint: allow-file(TRC-001: in-memory bookkeeping, never serialized)
  int presentations = 0;  ///< bus slots spent presenting (1 + retries)
  int writebacks_during = 0;  ///< own write-backs sent while in flight

  [[nodiscard]] Cycle service_latency() const {
    return completed - first_presented;
  }
  [[nodiscard]] Cycle total_latency() const { return completed - issued; }
};

class RequestTracker {
 public:
  /// `keep_records` retains every finished record (tests, small runs).
  explicit RequestTracker(int num_cores, bool keep_records = false);

  /// Starts tracking `core`'s request (at most one in flight per core).
  void begin(CoreId core, LineAddr line, AccessType access, Cycle issued);

  /// `core`'s in-flight request was presented on the bus in the slot
  /// starting at `slot_start` (first call fixes first_presented; later
  /// calls count retries).
  void on_presented(CoreId core, Cycle slot_start);

  /// `core`'s in-flight request completed at `completion`.
  void on_completed(CoreId core, Cycle completion);

  /// `core` sent a write-back; attributed to its in-flight request if any.
  void on_writeback_sent(CoreId core);

  [[nodiscard]] bool has_inflight(CoreId core) const;
  [[nodiscard]] const RequestRecord& inflight(CoreId core) const;

  [[nodiscard]] std::int64_t completed_requests() const {
    return completed_count_;
  }
  /// Service-latency summary for one core (completed requests only).
  [[nodiscard]] const Summary& service_latency(CoreId core) const;
  [[nodiscard]] const Summary& total_latency(CoreId core) const;
  /// Max service latency across all cores; kNoCycle when nothing completed.
  [[nodiscard]] Cycle max_service_latency() const;
  /// The completed request with the largest service latency.
  [[nodiscard]] const RequestRecord& worst_request() const;

  /// All finished records (requires keep_records).
  [[nodiscard]] const std::vector<RequestRecord>& records() const;

 private:
  RequestRecord& inflight_mut(CoreId core);

  bool keep_records_;
  std::int64_t completed_count_ = 0;
  std::vector<std::optional<RequestRecord>> inflight_;  // per core
  std::vector<Summary> service_;                        // per core
  std::vector<Summary> total_;                          // per core
  std::optional<RequestRecord> worst_;
  std::vector<RequestRecord> records_;
};

}  // namespace psllc::core

#endif  // PSLLC_CORE_REQUEST_TRACKER_H_
