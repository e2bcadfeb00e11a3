#pragma once

/// @file costas.hpp
/// Second-order Costas loop for QPSK, as used by the paper's receiver
/// ([22]) to track residual carrier phase and frequency after the
/// interference-suppression filter. The loop error is the classic
/// decision-directed QPSK detector e = sgn(I)*Q - sgn(Q)*I.

#include <cstddef>

#include "core/contracts.hpp"
#include "dsp/types.hpp"

namespace bhss::sync {

/// The receiver's residual-phase model over one hop: sample i of a hop
/// whose first sample lies `start` samples into the frame is turned by
/// angle(i) = -(phase + cfo * (start + i - anchor)), evaluated in double
/// and rounded to float once. The one definition of that angle, for the
/// vector rotation (`dsp::rotate`) and the fused loop (`CostasLoop::track`).
struct PhaseRamp {
  double phase = 0.0;     ///< model phase at the anchor [rad]
  double cfo = 0.0;       ///< model CFO [rad/sample]
  std::size_t start = 0;  ///< frame time of the hop's first sample [samples]
  double anchor = 0.0;    ///< frame time of the anchor [samples]

  [[nodiscard]] float angle(std::size_t i) const noexcept {
    return static_cast<float>(-(phase + cfo * (static_cast<double>(start + i) - anchor)));
  }
};

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

  /// Rotate a hop by `ramp` and track it, in one pass:
  ///   out[i] = process(x_i * cf{cosf(a), sinf(a)}),  a = ramp.angle(i),
  /// with x_i = in[i] below in.size() and zero from there to out.size().
  /// These are the bits of `dsp::rotate(x, ramp angle)` then `process(x)`:
  /// the same float angle, the phasor as `simd::sincos_f32` computes it and
  /// the finite complex product of `simd::cmul_inplace`. `in` may be `out`
  /// itself or shorter; it must not overlap `out` otherwise.
  BHSS_HOT void track(dsp::cspan in, const PhaseRamp& ramp, dsp::cspan_mut out) noexcept;

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
