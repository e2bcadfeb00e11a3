#pragma once

/// @file transmitter.hpp
/// The BHSS transmitter (Fig. 4, bottom): frame bytes -> 4-bit symbols ->
/// PN-scrambled 32-chip spreading -> half-sine O-QPSK modulation whose
/// pulse duration (and hence bandwidth) hops per the shared random
/// schedule *during* the frame — the property that defeats reactive
/// jammers (§3).

#include <span>
#include <vector>

#include "core/hop_override.hpp"
#include "core/hop_schedule.hpp"
#include "core/system_config.hpp"
#include "dsp/types.hpp"

namespace bhss::core {

/// One transmitted frame: the waveform plus everything the tests and the
/// jammer models need to know about it.
struct Transmission {
  dsp::cvec samples;                   ///< baseband waveform, unit power/hop
  HopSchedule schedule;                ///< bandwidth dwell plan
  std::vector<std::uint8_t> symbols;   ///< frame symbols (incl. preamble)
  std::uint64_t frame_counter = 0;
};

/// The per-frame derivations both ends make from the shared random source
/// (§4.1): the PN scrambler seed and the hop schedule.
struct FramePlan {
  std::uint32_t scrambler_seed = 0;
  HopSchedule schedule;
};

/// Plan frame `frame_counter` of `n_symbols` symbols from (config.seed,
/// frame_counter). `ov` optionally replaces the configured hop
/// pattern/dwell (adaptation layer); its pattern must cover the
/// configured bandwidth set (BHSS_REQUIREd).
[[nodiscard]] FramePlan plan_frame(const SystemConfig& config, std::uint64_t frame_counter,
                                   std::size_t n_symbols, const HopOverride& ov = {});

/// Stateless frame transmitter; all randomness is derived per frame from
/// (config.seed, frame_counter) so the receiver can mirror it.
class BhssTransmitter {
 public:
  explicit BhssTransmitter(SystemConfig config);

  /// Build the waveform for one payload. `ov` optionally replaces the
  /// configured hop pattern/dwell for this frame (adaptation layer); the
  /// receiver must be handed the same override for the same frame.
  [[nodiscard]] Transmission transmit(std::span<const std::uint8_t> payload,
                                      std::uint64_t frame_counter,
                                      const HopOverride& ov = {}) const;

  /// Modulate an explicit symbol stream with an explicit schedule — the
  /// receiver reuses this to regenerate the reference preamble waveform.
  /// @param n_symbols  modulate only the first n_symbols of `symbols`
  ///                   (the covering schedule segments, preamble-only
  ///                   reference generation).
  [[nodiscard]] static dsp::cvec modulate_symbols(std::span<const std::uint8_t> symbols,
                                                  std::size_t n_symbols,
                                                  const HopSchedule& schedule,
                                                  std::uint32_t scrambler_seed);

  [[nodiscard]] const SystemConfig& config() const noexcept { return config_; }

 private:
  SystemConfig config_;
};

}  // namespace bhss::core
