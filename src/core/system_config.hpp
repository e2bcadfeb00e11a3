#pragma once

/// @file system_config.hpp
/// Shared configuration of a BHSS link. Transmitter and receiver are
/// constructed from the same SystemConfig — that is the paper's shared
/// random source assumption (§4.1): everything here except the live
/// channel is known to both ends and unknown to the jammer.

#include <cstdint>

#include "core/control_logic.hpp"
#include "core/hop_pattern.hpp"

namespace bhss::core {

/// How the receiver finds frame timing / phase / CFO.
enum class SyncMode {
  genie,     ///< oracle timing, no phase/CFO (isolates filtering effects)
  preamble,  ///< data-aided acquisition from the preamble (§6.1)
};

/// Which pre-despreading filter strategy the receiver runs (ablations).
enum class FilterPolicy {
  adaptive,         ///< control logic of §4.2 (the paper's receiver)
  off,              ///< plain SS receiver, eq. (7) behaviour
  always_lowpass,   ///< ablation: low-pass regardless of the jammer
  always_excision,  ///< ablation: excision regardless of the jammer
};

/// Complete link configuration shared by both ends.
struct SystemConfig {
  std::uint64_t seed = 0xB1155ULL;  ///< shared random seed (pre-shared key)

  /// Hop distribution; also carries the bandwidth set and sampling rate.
  HopPattern pattern = HopPattern::make(HopPatternType::linear, BandwidthSet::paper());

  /// Hop dwell in symbols ("the pulse shape is changed after a
  /// configurable number of symbols", §6.1). Must outrun the jammer's
  /// reaction time.
  std::size_t symbols_per_hop = 4;

  /// false = fixed-bandwidth baseline, at the one level of `pattern`
  /// (HopPattern::fixed; HopPattern::fixed_level).
  bool hopping = true;

  SyncMode sync = SyncMode::preamble;
  FilterPolicy filter_policy = FilterPolicy::adaptive;
  ControlLogicConfig logic{};

  /// Bounded re-acquisition: total preamble search passes (1 = single
  /// shot). A transient that hits the acquisition window — a
  /// sync-targeting burst, a clock glitch that shifts the frame beyond the
  /// nominal search window — would otherwise turn into a silent frame loss
  /// (or worse, a decode of garbage). The receiver instead retries the
  /// search with a geometrically widened lag window and a decayed
  /// threshold, backs off after this many passes, and classifies an
  /// exhausted search as `sync_lost`.
  std::size_t max_sync_attempts = 3;
};

}  // namespace bhss::core
