// Whole-system configuration and the paper's partition notation.
//
// Section 5 of the paper names configurations:
//   SS(s,w,n)  — partition of s sets x w ways shared by n cores, with the
//                set sequencer;
//   NSS(s,w,n) — the same partition, contending requests serviced best
//                effort (no sequencer);
//   P(s,w)     — a private s x w partition per core.
// make_paper_setup() turns a notation plus the active core count into a
// ready-to-run SystemConfig + PartitionMap with the paper's platform
// defaults (4-way 16-set L2, 16-way 32-set LLC, 64 B lines, 50-cycle TDM
// slots — the slot width recovered from Figure 7's analytical lines; the
// derivation is on kPaperSlotWidth below).
#ifndef PSLLC_CORE_SYSTEM_CONFIG_H_
#define PSLLC_CORE_SYSTEM_CONFIG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bus/tdm_schedule.h"
#include "llc/llc.h"
#include "llc/partition.h"
#include "mem/dram.h"
#include "mem/private_cache.h"

namespace psllc::core {

/// Paper default slot width (cycles), recovered from the Figure 7
/// analytical WCL lines: 5000 (SS), 979250 (NSS), 450 (P) all divide out at
/// S_W = 50 for the 4-core platform.
inline constexpr Cycle kPaperSlotWidth = 50;

struct SystemConfig {
  int num_cores = 4;
  Cycle slot_width = kPaperSlotWidth;
  /// Explicit slot->core assignment; empty means the canonical 1S-TDM
  /// schedule {c0, ..., c(N-1)}.
  std::vector<CoreId> schedule_slots;
  mem::PrivateCacheConfig private_caches;
  llc::LlcConfig llc;
  llc::ContentionMode mode = llc::ContentionMode::kSetSequencer;
  mem::DramConfig dram;
  int pwb_capacity = 16;
  /// Retain every request record in the tracker (tests / small runs).
  bool keep_request_records = false;
  std::uint64_t seed = 0x5eedULL;

  /// Builds the TDM schedule this config describes.
  [[nodiscard]] bus::TdmSchedule make_schedule() const;

  /// Throws ConfigError on inconsistency. Notably enforces the system-model
  /// requirement that an LLC fill completes within one slot:
  /// slot_width >= llc.lookup_latency + dram.worst_case_latency(), where
  /// the memory term is supplied by the memory backend `dram.backend`
  /// selects (see mem/memory_backend.h).
  void validate() const;
};

/// The paper's SS/NSS/P notation.
struct PartitionNotation {
  enum class Kind : std::uint8_t {
    kSharedSequenced,   ///< SS(s,w,n)
    kSharedBestEffort,  ///< NSS(s,w,n)
    kPrivate,           ///< P(s,w)
  };
  Kind kind = Kind::kSharedSequenced;
  int sets = 1;
  int ways = 1;
  int sharers = 1;  ///< n; ignored for kPrivate

  /// Parses "SS(1,2,4)", "NSS(32,4,2)", "P(8,2)" (case-insensitive).
  /// Throws ConfigError on malformed input.
  static PartitionNotation parse(std::string_view text);

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] bool is_shared() const { return kind != Kind::kPrivate; }
};

/// A ready-to-run configuration for one paper experiment. The partition
/// geometry is a *program* — an ordered schedule of modes. Paper setups are
/// static (one mode); dynamic-repartitioning scenarios append further modes
/// with trigger epochs before constructing the System.
struct ExperimentSetup {
  SystemConfig config;
  llc::PartitionProgram program;
  PartitionNotation notation;

  /// The initial (mode-0) map — what `partitions` was before the program
  /// refactor; static callers read the whole geometry through this.
  [[nodiscard]] const llc::PartitionMap& partitions() const {
    return program.initial();
  }
};

/// Builds the paper platform for `notation` with `active_cores` cores on
/// the bus. For shared notations, active_cores must equal notation.sharers
/// (the paper's evaluation shares among all active cores). For P, every
/// active core receives its own (sets x ways) partition.
ExperimentSetup make_paper_setup(const PartitionNotation& notation,
                                 int active_cores,
                                 std::uint64_t seed = 0x5eedULL);

/// Convenience: parse + build.
ExperimentSetup make_paper_setup(std::string_view notation, int active_cores,
                                 std::uint64_t seed = 0x5eedULL);

}  // namespace psllc::core

#endif  // PSLLC_CORE_SYSTEM_CONFIG_H_
