#pragma once

/// @file preamble_sync.hpp
/// Data-aided frame acquisition. As in the paper (§6.1: "The preamble and
/// SFD serve for frame, frequency, time, and phase synchronization at the
/// receiver"), the receiver correlates the incoming stream against the
/// known modulated preamble waveform to estimate frame timing, carrier
/// phase, and residual carrier frequency offset.

#include <optional>

#include "dsp/types.hpp"
#include "obs/trace.hpp"

namespace bhss::sync {

/// Estimates produced from the preamble.
struct SyncEstimate {
  std::size_t frame_start = 0;  ///< sample index of the first preamble sample
  float phase = 0.0F;           ///< carrier phase offset [rad]
  float cfo = 0.0F;             ///< carrier frequency offset [rad/sample]
  float quality = 0.0F;         ///< normalised correlation peak, [0, 1]
  float margin = 0.0F;          ///< peak over the correlation noise floor
                                ///< (mean normalised magnitude across the
                                ///< searched lags); CFAR-style statistic a
                                ///< lowered re-acquisition threshold can
                                ///< validate against
};

/// Preamble-based synchroniser.
class PreambleSync {
 public:
  /// @param reference  the clean modulated preamble waveform, as the
  ///                   transmitter emits it (receiver can regenerate it
  ///                   from the shared random source).
  explicit PreambleSync(dsp::cvec reference);

  /// Search `x` over lags [0, max_lag] for the preamble. Returns nullopt
  /// when no lag reaches the acceptance threshold (frame lost).
  /// @param threshold  minimum normalised correlation to accept a frame;
  ///                   the receiver's bounded re-acquisition lowers it on
  ///                   retries without rebuilding the synchroniser.
  /// @param trace      optional sink for the preamble_acquire timing scope
  [[nodiscard]] std::optional<SyncEstimate> acquire(dsp::cspan x, std::size_t max_lag,
                                                    float threshold,
                                                    obs::TraceSink* trace = nullptr) const;

  /// Refine a coarse estimate by regressing block-wise data-aided phase
  /// measurements over 8 blocks of the preamble. The coarse two-half CFO
  /// estimate leaves a residual that, extrapolated over a long frame,
  /// exceeds the pull-in range of decision-directed tracking; the
  /// regression shrinks both the phase intercept and the CFO error by
  /// roughly the block count. Residual block phases are measured against
  /// the coarse estimate, so no phase unwrapping is needed as long as the
  /// coarse error stays below pi per block.
  [[nodiscard]] SyncEstimate refine(dsp::cspan x, const SyncEstimate& coarse,
                                    obs::TraceSink* trace = nullptr) const;

  /// Remove the estimated phase and CFO from `x` in place:
  /// x[n] *= exp(-j (phase + cfo * (n - frame_start))).
  static void derotate(dsp::cspan_mut x, const SyncEstimate& est) noexcept;

  [[nodiscard]] const dsp::cvec& reference() const noexcept { return ref_; }

 private:
  dsp::cvec ref_;
};

}  // namespace bhss::sync
