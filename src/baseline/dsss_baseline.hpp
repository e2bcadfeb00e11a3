#pragma once

/// @file dsss_baseline.hpp
/// The conventional fixed-bandwidth DSSS baseline of §6.4: "we use for the
/// latter the same code base as BHSS but disable bandwidth hopping". These
/// helpers build the SystemConfigs the paper compares against.

#include "core/system_config.hpp"

namespace bhss::baseline {

/// Fixed-bandwidth DSSS receiver/transmitter config at the given level of
/// `bands` (default: the widest bandwidth, which is what Fig. 14 uses:
/// "the maximum bandwidth of BHSS, i.e., 10 MHz for the signal and the
/// jammer"). Filtering still runs unless disabled — the paper's §6.3
/// fixed-offset experiments keep the filters, §6.4's reference receiver
/// faces a matched jammer where they cannot help.
[[nodiscard]] core::SystemConfig dsss_config(const core::BandwidthSet& bands,
                                             std::size_t level = 0);

}  // namespace bhss::baseline
