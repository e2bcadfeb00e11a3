#pragma once

/// @file receiver.hpp
/// The BHSS receiver (Fig. 6, bottom). Per hop segment (whose bandwidth it
/// derives from the shared random source, §4.1 — never from the observed
/// spectrum, which a strong jammer could poison):
///   1. estimate the jammer spectrum and pick a suppression filter
///      (control logic, §4.2),
///   2. filter the raw samples *before* any despreading,
///   3. matched-filter chip demodulation at the hop's pulse duration,
///   4. PN-descrambled 16-ary despreading,
/// then frame parsing + CRC. Frame, phase and frequency acquisition is
/// data-aided from the preamble (§6.1), performed on filtered samples so
/// the jammer cannot blind it.

#include "core/hop_override.hpp"
#include "core/hop_schedule.hpp"
#include "core/system_config.hpp"
#include "dsp/types.hpp"
#include "obs/link_obs.hpp"
#include "sync/preamble_sync.hpp"

namespace bhss::core {

/// Per-hop diagnostics for tests, benches and the spectrum monitor example.
/// The estimator's readings for each hop ride in its hop_decision event.
struct HopDiagnostics {
  std::size_t bw_index = 0;
  FilterDecision::Kind filter = FilterDecision::Kind::none;
  bool degenerate_psd = false;  ///< control logic fell back (validated path)
};

/// Outcome of one frame reception attempt, including the graceful-
/// degradation taxonomy: how the receiver failed (or recovered) matters
/// as much as whether it did — `run_link_shard` folds these into the
/// merged `LinkStats` failure counters.
struct RxResult {
  bool frame_detected = false;  ///< preamble found (always true for genie)
  bool crc_ok = false;          ///< frame passed SFD + CRC
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> symbols;  ///< decoded symbols (incl. preamble)
  sync::SyncEstimate sync{};
  std::vector<HopDiagnostics> hops;

  std::size_t sync_attempts = 0;  ///< preamble search passes performed
  bool reacquired = false;        ///< acquisition succeeded on a retry
  bool sync_lost = false;         ///< every bounded search attempt failed
  bool input_scrubbed = false;    ///< non-finite samples zeroed at the input
  std::size_t filter_fallbacks = 0;  ///< degenerate-PSD fallbacks (sync + hops)
};

/// Frame receiver mirroring a BhssTransmitter with the same SystemConfig.
class BhssReceiver {
 public:
  explicit BhssReceiver(SystemConfig config);

  /// Attempt to decode one frame from `capture`.
  /// @param capture          received baseband stream, taken by value:
  ///                         the receiver scrubs and derotates it in
  ///                         place, so a caller that moves it in holds
  ///                         no copy
  /// @param frame_counter    shared frame index (drives seed derivation)
  /// @param payload_len      expected payload length in bytes (link-layer
  ///                         knowledge; the header length byte is still
  ///                         checked against it)
  /// @param search_window    max lag to search for the preamble
  /// @param genie_frame_start exact frame start, used in SyncMode::genie
  /// @param o                 optional telemetry handle; decoding is
  ///                          bit-identical with or without it —
  ///                          instrumentation only observes
  /// @param ov                optional hop-plan override; must match the
  ///                          override the transmitter used for this frame
  [[nodiscard]] RxResult receive(dsp::cvec capture, std::uint64_t frame_counter,
                                 std::size_t payload_len, std::size_t search_window,
                                 std::size_t genie_frame_start = 0,
                                 const obs::LinkObs& o = {},
                                 const HopOverride& ov = {}) const;

  [[nodiscard]] const SystemConfig& config() const noexcept { return config_; }

  /// Filter `buffer` around [a0, a0+needed) with `decision`, returning the
  /// group-delay-compensated samples aligned to a0 (zero-padded at edges).
  /// With a filter of K taps these are the bits of a copy of the capture
  /// from a0 - lead, lead = min(a0, K), zero-padded to lead + needed + K
  /// samples and filtered whole, read from lead + K/2 (the group delay) on.
  [[nodiscard]] static dsp::cvec filtered_slice(dsp::cspan buffer, std::size_t a0,
                                                std::size_t needed,
                                                const FilterDecision& decision,
                                                obs::TraceSink* trace = nullptr);

 private:
  /// Apply the configured filter policy to one hop slice.
  [[nodiscard]] FilterDecision choose_filter(dsp::cspan slice, std::size_t bw_index,
                                             const obs::LinkObs& o) const;

  SystemConfig config_;
  ControlLogic logic_;
};

}  // namespace bhss::core
