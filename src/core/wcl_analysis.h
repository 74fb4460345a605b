// Worst-case latency (WCL) analysis — the paper's Section 4.
//
// All bounds are *service* latencies: from the start of the TDM slot in
// which the request is first presented on the bus until the response
// completes (one slot after the last required bus transfer).
//
//  * Theorem 4.7 (1S-TDM, shared partition, no sequencer):
//        WCL = ((m + 1) * A * N + 1) * S_W,   A = 2(n-1) * w * (n-1)
//    with N = cores on the bus, n = cores sharing the partition, w =
//    partition ways, m = min(m_cua, M), m_cua = private cache capacity of
//    the core under analysis in lines, M = partition capacity in lines.
//  * Theorem 4.8 (with the set sequencer):
//        WCL_ss = (2(n-1) * n + 1) * N * S_W
//    — independent of cache and partition sizes.
//  * Private partition (the paper's P configurations; derived here, the
//    paper quotes the resulting 450-cycle line in Figure 7): the only
//    interference is the core's own forced write-back when its request
//    evicts a line it still caches privately —
//        WCL_p = (2N + 1) * S_W
//    (request slot + one period to drain the forced write-back + one period
//    to re-present, completing one slot later). The PRB/PWB round-robin
//    guarantees the PWB is empty when a request is first presented in a
//    private partition, see bus/pending_buffers.h.
//  * Section 4.1: with a shared partition, best-effort contention and a
//    non-1S-TDM schedule, the WCL is unbounded.
#ifndef PSLLC_CORE_WCL_ANALYSIS_H_
#define PSLLC_CORE_WCL_ANALYSIS_H_

#include <algorithm>
#include <cstdint>

#include "bus/tdm_schedule.h"
#include "core/system_config.h"
#include "llc/llc.h"

namespace psllc::core {

/// Parameters of a shared-partition WCL question.
struct SharedPartitionScenario {
  int total_cores = 4;        ///< N — cores arbitrating on the bus
  int sharers = 4;            ///< n — cores sharing the partition (n <= N)
  int partition_sets = 1;     ///< s
  int partition_ways = 16;    ///< w
  int cua_capacity_lines = 64;  ///< m_cua — private cache capacity in lines
  Cycle slot_width = kPaperSlotWidth;  ///< S_W

  [[nodiscard]] int partition_lines() const {
    return partition_sets * partition_ways;
  }
  /// m = min(m_cua, M).
  [[nodiscard]] int m() const {
    return std::min(cua_capacity_lines, partition_lines());
  }

  /// Throws ConfigError on nonsensical parameters (needs sharers >= 2: with
  /// one sharer the partition is private and Theorem 4.7 does not apply).
  void validate() const;
};

/// Theorem 4.7 in slots: (m+1)*A*N + 1 with A = 2(n-1)*w*(n-1).
[[nodiscard]] std::int64_t wcl_1s_tdm_slots(
    const SharedPartitionScenario& scenario);
[[nodiscard]] Cycle wcl_1s_tdm_cycles(const SharedPartitionScenario& scenario);

/// Theorem 4.8 in slots: (2(n-1)*n + 1) * N.
[[nodiscard]] std::int64_t wcl_set_sequencer_slots(
    const SharedPartitionScenario& scenario);
[[nodiscard]] Cycle wcl_set_sequencer_cycles(
    const SharedPartitionScenario& scenario);

/// Private-partition bound in slots: 2N + 1.
[[nodiscard]] std::int64_t wcl_private_slots(int total_cores);
[[nodiscard]] Cycle wcl_private_cycles(int total_cores, Cycle slot_width);

/// Generalization beyond the paper: the private-partition bound under an
/// arbitrary TDM schedule. The critical path is present -> own forced
/// write-back in the next owned slot -> retry in the one after; the bound
/// is the worst, over all of `core`'s slots, span from a presenting slot to
/// the end of the second-next owned slot. Equals (2N+1)*S_W for 1S-TDM.
[[nodiscard]] Cycle wcl_private_cycles(const bus::TdmSchedule& schedule,
                                       CoreId core);

/// Improvement factor of the set sequencer (Theorem 4.7 / Theorem 4.8) —
/// the paper's Section 4.5 headline comparison.
[[nodiscard]] double wcl_improvement_ratio(
    const SharedPartitionScenario& scenario);

/// Is the WCL of a request to a shared/private partition bounded under the
/// given schedule and contention mode? (Section 4.1: best-effort sharing
/// with a multi-slot schedule is unbounded. The set sequencer's FIFO
/// ordering excludes that scenario even for multi-slot schedules — shown
/// empirically by ablation bench A4.)
enum class Boundedness : std::uint8_t { kBounded, kUnbounded };
[[nodiscard]] Boundedness classify_wcl(const bus::TdmSchedule& schedule,
                                       bool partition_shared,
                                       llc::ContentionMode mode);

/// The steady-state analytical WCL for `cua` under one concrete partition
/// map (dispatches on the map: shared + sequencer -> Thm 4.8, shared
/// best-effort -> Thm 4.7, sole sharer -> the private bound of the
/// configured schedule). Throws ConfigError when unbounded, and for a
/// shared partition under a schedule that is not 1S-TDM, where no bound is
/// derived yet.
[[nodiscard]] Cycle analytical_wcl_cycles(const SystemConfig& config,
                                          const llc::PartitionMap& map,
                                          CoreId cua);

/// The analytical WCL for `cua` in a paper experiment setup. For a static
/// program this is the classic per-notation bound; for a multi-mode program
/// it is the max steady-state bound over all modes (transitions themselves
/// are covered by transient_wcl_cycles). Throws ConfigError when unbounded
/// (never for make_paper_setup outputs, which are always 1S-TDM).
[[nodiscard]] Cycle analytical_wcl_cycles(const ExperimentSetup& setup,
                                          CoreId cua);

/// Physical LLC slots whose partition assignment (covering rectangle or
/// sharer set) differs between `from` and `to` — exactly the slots the
/// transition protocol freezes, and an upper bound on the residents it
/// drains.
[[nodiscard]] int count_moved_slots(const llc::PartitionMap& from,
                                    const llc::PartitionMap& to);

/// Term breakdown of the transient WCL bound across one mode transition.
/// A request in flight across the transition pays, beyond a steady-state
/// service, for (a) the drain: every moved resident may need a back-inval
/// write-back slot from its owner plus the fence slot, (b) the sequencer
/// re-queue: pending requests of every (old or new) sharer re-present
/// once after the map switch, and (c) a steady-state term widened to the
/// union sharer set and the larger of the two partition rectangles —
/// during the window both populations contend for the partition.
struct TransientWclTerms {
  Cycle steady_bound = 0;   ///< widened steady-state service term
  Cycle drain_bound = 0;    ///< moved-resident write-back drain + fence
  Cycle requeue_bound = 0;  ///< sequencer re-queue after the map switch
  int moved_entries = 0;    ///< frozen slots (count_moved_slots)
  int sharer_delta = 0;     ///< widened n minus the new mode's steady n
  Cycle slot_width = kPaperSlotWidth;

  [[nodiscard]] Cycle total() const {
    return steady_bound + drain_bound + requeue_bound;
  }
};

/// The transient bound for `cua` across the `from` -> `to` transition.
/// Throws ConfigError when either steady state is unbounded or `cua` has
/// no partition in either map.
[[nodiscard]] TransientWclTerms transient_wcl_terms(
    const SystemConfig& config, const llc::PartitionMap& from,
    const llc::PartitionMap& to, CoreId cua);

/// Max transient bound over every transition of the setup's program.
/// Static programs have no transition: returns the steady bound, so the
/// invariant transient >= steady holds degenerately with equality.
[[nodiscard]] Cycle transient_wcl_cycles(const ExperimentSetup& setup,
                                         CoreId cua);

/// The system-model term every slot-count bound above multiplies out: all
/// WCL theorems assume an LLC fill (lookup + memory fetch) completes inside
/// the requester's slot, so the minimum admissible slot width is
///   llc.lookup_latency + backend.worst_case_latency()
/// with the memory term supplied by the backend `config.dram` selects.
/// SystemConfig::validate rejects any slot_width below this; the
/// ablation_dram_backend bench reports it per backend.
[[nodiscard]] Cycle required_slot_width(const SystemConfig& config);

/// Slack the configured slot leaves above the backend-supplied fill term
/// (slot_width - required_slot_width; negative would be rejected by
/// validate).
[[nodiscard]] Cycle slot_slack(const SystemConfig& config);

}  // namespace psllc::core

#endif  // PSLLC_CORE_WCL_ANALYSIS_H_
