#include "core/system_config.h"

#include <sstream>

#include "common/assert.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/wcl_analysis.h"

namespace psllc::core {

bus::TdmSchedule SystemConfig::make_schedule() const {
  if (schedule_slots.empty()) {
    return bus::TdmSchedule::one_slot(num_cores, slot_width);
  }
  auto schedule = bus::TdmSchedule::from_slots(schedule_slots, slot_width);
  PSLLC_CONFIG_CHECK(schedule.num_cores() == num_cores,
                     "schedule covers " << schedule.num_cores()
                                        << " cores, system has " << num_cores);
  return schedule;
}

void SystemConfig::validate() const {
  PSLLC_CONFIG_CHECK(num_cores > 0, "need >=1 core");
  PSLLC_CONFIG_CHECK(num_cores <= kMaxCores,
                     "system has " << num_cores << " cores, more than the "
                                   << kMaxCores << "-core limit");
  PSLLC_CONFIG_CHECK(slot_width > 0, "slot width must be positive");
  private_caches.validate();
  llc.validate();
  dram.validate();
  PSLLC_CONFIG_CHECK(pwb_capacity > 0, "PWB capacity must be >=1");
  PSLLC_CONFIG_CHECK(
      private_caches.l2.line_bytes == llc.geometry.line_bytes,
      "L2 and LLC line sizes differ");
  PSLLC_CONFIG_CHECK(
      dram.line_bytes == llc.geometry.line_bytes,
      "DRAM and LLC line sizes differ");
  // System model (paper Section 3): the LLC responds within the requester's
  // slot, so a miss fill (lookup + memory fetch) must fit in one slot. The
  // memory term is supplied by the selected backend — a backend with a
  // larger worst case (e.g. the open-page bank/row model) needs a wider
  // slot than the fixed-latency model.
  PSLLC_CONFIG_CHECK(
      slot_width >= required_slot_width(*this),
      "slot width " << slot_width << " cannot absorb an LLC fill (lookup "
                    << llc.lookup_latency << " + "
                    << mem::to_string(dram.backend) << " backend worst case "
                    << dram.worst_case_latency() << ")");
  (void)make_schedule();  // throws if the explicit schedule is inconsistent
}

PartitionNotation PartitionNotation::parse(std::string_view text) {
  const std::string_view trimmed = trim(text);
  const std::size_t open = trimmed.find('(');
  PSLLC_CONFIG_CHECK(open != std::string_view::npos && trimmed.back() == ')',
                     "malformed partition notation: '" << trimmed << "'");
  const std::string_view name = trim(trimmed.substr(0, open));
  const std::string_view args =
      trimmed.substr(open + 1, trimmed.size() - open - 2);
  PartitionNotation notation;
  int expected_args = 3;
  if (iequals(name, "SS")) {
    notation.kind = Kind::kSharedSequenced;
  } else if (iequals(name, "NSS")) {
    notation.kind = Kind::kSharedBestEffort;
  } else if (iequals(name, "P")) {
    notation.kind = Kind::kPrivate;
    expected_args = 2;
  } else {
    PSLLC_CONFIG_CHECK(false, "unknown partition notation '" << name << "'");
  }
  const auto fields = split(args, ',');
  PSLLC_CONFIG_CHECK(static_cast<int>(fields.size()) == expected_args,
                     "notation '" << name << "' expects " << expected_args
                                  << " arguments, got " << fields.size());
  auto parse_field = [&](const std::string& field, const char* what) {
    const auto value = parse_i64(field);
    PSLLC_CONFIG_CHECK(value.has_value() && *value > 0,
                       "bad " << what << " in notation: '" << field << "'");
    return static_cast<int>(*value);
  };
  notation.sets = parse_field(fields[0], "set count");
  notation.ways = parse_field(fields[1], "way count");
  if (expected_args == 3) {
    notation.sharers = parse_field(fields[2], "sharer count");
  }
  return notation;
}

std::string PartitionNotation::to_string() const {
  std::ostringstream oss;
  switch (kind) {
    case Kind::kSharedSequenced:
      oss << "SS(" << sets << "," << ways << "," << sharers << ")";
      break;
    case Kind::kSharedBestEffort:
      oss << "NSS(" << sets << "," << ways << "," << sharers << ")";
      break;
    case Kind::kPrivate:
      oss << "P(" << sets << "," << ways << ")";
      break;
  }
  return oss.str();
}

ExperimentSetup make_paper_setup(const PartitionNotation& notation,
                                 int active_cores, std::uint64_t seed) {
  PSLLC_CONFIG_CHECK(active_cores > 0, "need >=1 active core");
  SystemConfig config;
  config.num_cores = active_cores;
  config.seed = seed;
  config.llc.seed = mix_seed(seed, 0x11c);

  if (notation.is_shared()) {
    PSLLC_CONFIG_CHECK(
        notation.sharers == active_cores,
        "paper setup shares among all active cores: notation "
            << notation.to_string() << " vs " << active_cores << " cores");
    config.mode = notation.kind == PartitionNotation::Kind::kSharedSequenced
                      ? llc::ContentionMode::kSetSequencer
                      : llc::ContentionMode::kBestEffort;
    std::vector<CoreId> sharers;
    sharers.reserve(static_cast<std::size_t>(active_cores));
    for (int c = 0; c < active_cores; ++c) {
      sharers.emplace_back(c);
    }
    llc::PartitionMap partitions = llc::make_shared_partition(
        config.llc.geometry, sharers, notation.sets, notation.ways);
    config.validate();
    return ExperimentSetup{
        config, llc::PartitionProgram(std::move(partitions)), notation};
  }

  // Private partitions: contention never arises, so the contention mode is
  // irrelevant; keep the sequencer for uniformity.
  config.mode = llc::ContentionMode::kSetSequencer;
  llc::PartitionMap partitions = llc::make_private_partitions(
      config.llc.geometry, active_cores, notation.sets, notation.ways);
  config.validate();
  return ExperimentSetup{
      config, llc::PartitionProgram(std::move(partitions)), notation};
}

ExperimentSetup make_paper_setup(std::string_view notation, int active_cores,
                                 std::uint64_t seed) {
  return make_paper_setup(PartitionNotation::parse(notation), active_cores,
                          seed);
}

}  // namespace psllc::core
