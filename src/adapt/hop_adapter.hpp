#pragma once

/// @file hop_adapter.hpp
/// Online re-weighting of the hop-pattern distribution. Given the base
/// (configured) draw probabilities and the detector's per-bandwidth
/// suspicion counts, the adapter down-weights suspected bandwidth
/// indices multiplicatively while guaranteeing an ExpressLRS-style
/// occupancy floor — every bandwidth keeps at least `kMinOccupancy`
/// probability, so no level starves and the jammer can never force the
/// link into a predictable residual set. Recovery walks the adapted
/// distribution back toward the base geometrically and snaps exactly
/// onto it, so a recovered link is bit-identical to one never jammed.
///
/// The adapter owns fixed-size buffers sized at construction; reweight
/// and recovery are pure element-wise folds (same operation sequence on
/// every platform), which keeps the whole adaptation loop inside the
/// repo's determinism contract.

#include <cstdint>
#include <span>
#include <vector>

#include "core/contracts.hpp"

namespace bhss::adapt {

/// Stateful distribution re-weighter over a fixed bandwidth set.
class HopAdapter {
 public:
  explicit HopAdapter(std::vector<double> base_probs);

  /// Re-weight away from suspected bands: p_i = floor + span * w_i / sum w
  /// with w_i = base_i * kDeweight^min(suspicion_i, kDeweightCap). The
  /// result sums to 1 and honours the occupancy floor exactly.
  void reweight(std::span<const std::uint32_t> suspicion);

  /// Replace the distribution with the widest-spreading (maximum-entropy)
  /// uniform pattern — the bounded FALLBACK target.
  void fall_back_uniform() noexcept;

  /// One recovery step toward the base distribution. Returns true once
  /// the distribution has snapped exactly back onto the base.
  bool recover_toward_base() noexcept;

  [[nodiscard]] const std::vector<double>& probs() const noexcept { return probs_; }
  [[nodiscard]] const std::vector<double>& base() const noexcept { return base_; }
  [[nodiscard]] bool at_base() const noexcept { return at_base_; }

 private:
  std::vector<double> base_;   ///< normalised configured distribution
  std::vector<double> probs_;  ///< current adapted distribution
  std::vector<double> weights_;  ///< reweight scratch (no per-call allocation)
  bool at_base_ = true;
};

}  // namespace bhss::adapt
