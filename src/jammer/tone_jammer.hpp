#pragma once

/// @file tone_jammer.hpp
/// Continuous-wave and swept-carrier jammers. The excision-filter
/// literature the paper builds on ([3]-[7]) was developed against exactly
/// these interferers: a CW tone concentrates the whole power budget into
/// one spectral line ("narrow-band jammers will exhibit peaks at the
/// frequencies occupied by the jammer", §4.2), and a swept carrier drags
/// that line across the band faster than a per-hop estimate can follow.

#include <cstdint>

#include "dsp/types.hpp"

namespace bhss::jammer {

/// CW jammer: one unit-power complex exponential.
class ToneJammer {
 public:
  /// @param freq  tone frequency in cycles/sample, in (-0.5, 0.5)
  /// @param seed  randomises the initial phase
  explicit ToneJammer(double freq, std::uint64_t seed = 1);

  /// Generate `n` samples with unit power; phase is continuous across
  /// calls.
  [[nodiscard]] dsp::cvec generate(std::size_t n);

 private:
  double freq_;
  double phase_;  ///< current phase [rad]
};

/// Swept-carrier (chirp) jammer: a unit-power tone sweeping linearly
/// between two band edges and wrapping around, period `sweep_samples`.
class SweptJammer {
 public:
  /// @param f_lo, f_hi      sweep band edges, cycles/sample
  /// @param sweep_samples   samples per full sweep
  /// @param seed            randomises the initial sweep position
  SweptJammer(double f_lo, double f_hi, std::size_t sweep_samples, std::uint64_t seed = 1);

  /// Generate `n` samples; sweep state is continuous across calls.
  [[nodiscard]] dsp::cvec generate(std::size_t n);

 private:
  double f_lo_;
  double f_hi_;
  double rate_;      ///< frequency increment per sample
  double freq_;      ///< current instantaneous frequency
  double phase_;     ///< current phase [rad]
};

}  // namespace bhss::jammer
