#pragma once

/// @file pattern_optimizer.hpp
/// Monte-Carlo optimisation of the hop distribution (§6.4.1): the
/// parabolic pattern of Table 1 was computed by the authors to "provide
/// the maximum minimal power advantage for all possible jammer
/// bandwidths" — the best response to a jammer that parks on the weakest
/// bandwidth. This module reproduces that computation against the
/// analytical SNR-improvement bound.

#include "core/hop_pattern.hpp"

namespace bhss::core {

/// Worst-case (over the jammer bandwidths in the set) expected improvement
/// of a pattern, in dB, against a paper-scale strong jammer (rho_j(0) =
/// 100, sigma_n^2 = 0.01). This is the objective the parabolic pattern
/// maximises.
[[nodiscard]] double min_advantage_db(const HopPattern& pattern);

/// Monte-Carlo max-min optimisation of min_advantage_db over hop
/// distributions: 20000 Dirichlet draws, then 20000 local steps.
[[nodiscard]] HopPattern optimize_max_min_advantage(const BandwidthSet& bands);

}  // namespace bhss::core
