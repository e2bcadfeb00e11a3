#pragma once

/// @file workloads.hpp
/// The four benchmark workloads. Each is one data point of the link
/// simulator at a paper operating point; README.md says why each was
/// chosen and which layers it stresses. The seed only feeds the channel,
/// jammer and fault randomness: the shared hop schedule (SystemConfig
/// seed) is part of the workload, so the work done per run moves little
/// between seeds while the noise realisations change.

#include <cstdint>
#include <string>

#include "core/link_simulator.hpp"

namespace suite {

struct Workload {
  std::string name;
  bhss::core::SimConfig cfg;
  /// True: the point runs through CampaignRunner::run_point with a fresh
  /// CheckpointJournal; false: through ParallelLinkRunner::run.
  bool journaled = false;
};

/// Build workload `name` for `seed`; `packets` overrides the workload's
/// packet count when nonzero (smoke mode). Throws std::invalid_argument
/// on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     std::size_t packets = 0);

}  // namespace suite
