#pragma once

/// @file pulse.hpp
/// Chip pulse shapes. The paper's implementation modulates chips with a
/// half-sine pulse g(t) (as in IEEE 802.15.4 O-QPSK) and hops bandwidth by
/// scaling the pulse duration: g(t) -> g(alpha t) halves/doubles the
/// occupied bandwidth (eq. (1)).

#include "dsp/types.hpp"

namespace bhss::dsp {

/// Half-sine pulse sampled at `samples_per_chip` points:
///   g[i] = sin(pi * i / sps), i = 0..sps-1.
/// Scaling sps by 1/alpha is exactly the g(alpha t) bandwidth hop of the
/// paper. The pulse is normalised to unit energy per chip so that hopping
/// does not change transmit power. It is symmetric, so it is also its own
/// matched filter, with unit gain at the optimum instant.
[[nodiscard]] fvec half_sine_pulse(std::size_t samples_per_chip);

}  // namespace bhss::dsp
