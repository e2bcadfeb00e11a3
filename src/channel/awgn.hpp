#pragma once

/// @file awgn.hpp
/// Complex additive white Gaussian noise source. The paper's §6.2 setup
/// (coax cables + attenuators, free-running oscillators) is explicitly
/// modelled as an AWGN channel; this source provides both the thermal
/// noise floor and the raw material for the noise jammer.
///
/// The stream is defined in-tree: MT19937-64 (the engine the C++ standard
/// specifies) feeding the polar-method sequence of libstdc++'s
/// `std::normal_distribution<float>`, drawn by `dsp::simd::gaussian_cf`.
/// Only `logf` comes from libm, so the samples no longer depend on the
/// C++ standard library. The kernel keeps `logf` a scalar libm call in
/// every build: no vector log approximation and no fast-math, or the
/// stream (and every golden downstream of it) would change.

#include <cstdint>

#include "dsp/simd/simd.hpp"
#include "dsp/types.hpp"

namespace bhss::channel {

/// Seeded complex white Gaussian noise generator.
class AwgnSource {
 public:
  explicit AwgnSource(std::uint64_t seed) : engine_(seed) {}

  /// Generate `n` samples of circularly-symmetric complex Gaussian noise
  /// with total power `power` (variance power/2 per rail).
  [[nodiscard]] dsp::cvec generate(std::size_t n, double power);

  /// Overwrite `out` with noise of power `power`; the samples `generate`
  /// would have returned for `out.size()`.
  void fill(dsp::cspan_mut out, double power);

  /// Add noise of power `power` to `x` in place.
  void add_to(dsp::cspan_mut x, double power);

 private:
  // Noise is its own random domain, apart from the protocol's
  // SharedRandom: seeded explicitly per instance, so runs stay replayable
  // without consuming the communicator's stream.
  dsp::simd::Mt19937_64 engine_;
};

}  // namespace bhss::channel
