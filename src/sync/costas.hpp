#pragma once

/// @file costas.hpp
/// Second-order Costas loop for QPSK, as used by the paper's receiver
/// ([22]) to track residual carrier phase and frequency after the
/// interference-suppression filter. The loop error is the classic
/// decision-directed QPSK detector e = sgn(I)*Q - sgn(Q)*I.

#include "core/contracts.hpp"
#include "dsp/types.hpp"

namespace bhss::sync {

/// Streaming QPSK Costas loop.
class CostasLoop {
 public:
  /// @param loop_bandwidth  normalised loop bandwidth (rad/sample),
  ///                        typical 0.005..0.05.
  explicit CostasLoop(float loop_bandwidth);

  /// Rotate one sample by the current NCO phase and update the loop.
  [[nodiscard]] BHSS_HOT dsp::cf process(dsp::cf in) noexcept;

  /// Process a block in place.
  BHSS_HOT void process(dsp::cspan_mut x) noexcept;

  [[nodiscard]] float phase() const noexcept { return phase_; }
  [[nodiscard]] float frequency() const noexcept { return freq_; }

  void reset() noexcept;

 private:
  float alpha_;  ///< proportional gain
  float beta_;   ///< integral gain
  float phase_ = 0.0F;
  float freq_ = 0.0F;
  float avg_power_ = 0.0F;  ///< running mean input power (error weighting)
};

}  // namespace bhss::sync
