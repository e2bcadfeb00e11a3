#pragma once

/// @file hop_schedule.hpp
/// The per-frame bandwidth hopping schedule. The pulse-shape scale factor
/// is re-drawn "after a fixed number of symbols" (paper §3/§6.1) from the
/// shared random source, so transmitter and receiver derive the identical
/// schedule and the jammer cannot predict it.

#include <vector>

#include "core/hop_pattern.hpp"
#include "core/shared_random.hpp"
#include "jammer/reactive_jammer.hpp"
#include "phy/chip_table.hpp"

namespace bhss::core {

/// One bandwidth dwell within a frame.
struct HopSegment {
  std::size_t bw_index = 0;      ///< level in the BandwidthSet
  std::size_t sps = 2;           ///< samples per chip during this hop
  std::size_t first_symbol = 0;  ///< first frame symbol carried by the hop
  std::size_t n_symbols = 0;     ///< symbols in this hop
  std::size_t start_sample = 0;  ///< nominal start in the frame waveform
  std::size_t n_samples = 0;     ///< nominal duration: n_symbols * 32 * sps

  [[nodiscard]] std::size_t n_chips() const noexcept {
    return n_symbols * phy::kChipsPerSymbol;
  }
};

/// Complete schedule covering every symbol of a frame.
struct HopSchedule {
  std::vector<HopSegment> segments;
  std::size_t total_symbols = 0;
  std::size_t total_samples = 0;  ///< frame waveform length (pulses end
                                  ///< exactly at segment boundaries)

  /// Hops as a jammer would observe them over the air (bandwidths and
  /// start samples), optionally shifted by the propagation delay.
  [[nodiscard]] std::vector<jammer::ObservedHop> observed_hops(
      const BandwidthSet& bands, std::size_t delay = 0) const;

  /// Build a randomised schedule: draw a bandwidth level per
  /// `symbols_per_hop` block from `pattern` using the shared random
  /// source. The final hop may be shorter.
  [[nodiscard]] static HopSchedule make(std::size_t total_symbols, std::size_t symbols_per_hop,
                                        const HopPattern& pattern, SharedRandom& rng);

  /// Fixed-bandwidth schedule (hopping disabled — the paper's baseline
  /// receiver uses "the same code base as BHSS but disable[s] bandwidth
  /// hopping", §6.4).
  [[nodiscard]] static HopSchedule fixed(std::size_t total_symbols, const BandwidthSet& bands,
                                         std::size_t bw_index);
};

}  // namespace bhss::core
