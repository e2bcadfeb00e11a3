#pragma once

/// @file reactive_jammer.hpp
/// Reactive matched-bandwidth jammer (attacker model of §2, realised per
/// [12]): the jammer senses the transmitter's instantaneous bandwidth and
/// switches its own jamming bandwidth to match — but only after a reaction
/// time tau (propagation + sensing + decision). BHSS defeats it by hopping
/// faster than tau; this model lets us reproduce that arms race.

#include <cstdint>
#include <span>
#include <vector>

#include "jammer/noise_jammer.hpp"

namespace bhss::jammer {

// What the sensing jammers (this one and EstimatingJammer) share: a bank
// of one noise source per band they can produce, the snap of an observed
// bandwidth onto that set, and the band they start on.

/// Index of the band of `bws` (non-empty) nearest to `bw` on a log scale;
/// ties go to the lower index.
[[nodiscard]] std::size_t closest_bw_index(std::span<const double> bws, double bw);

/// Index of the widest band of `bws` (non-empty), the first on ties: a
/// sensing jammer starts there, before it has observed anything.
[[nodiscard]] std::size_t widest_bw_index(std::span<const double> bws) noexcept;

/// One unit-power NoiseJammer per band of `bws`, band i seeded
/// seed * 0xD1B54A32D192ED03 + i + 1.
[[nodiscard]] std::vector<NoiseJammer> noise_bank(std::span<const double> bws,
                                                  std::uint64_t seed);

/// One bandwidth interval the jammer observes over the air.
struct ObservedHop {
  std::size_t start = 0;         ///< sample index where the hop begins
  double bandwidth_frac = 1.0;   ///< transmitter bandwidth during the hop
};

/// Reactive jammer: matches the observed bandwidth, `reaction_delay`
/// samples late. The jammer is persistent: between transmissions it keeps
/// jamming at the last bandwidth it reacted to (initially the widest
/// available), so a non-hopping victim stays matched from the second
/// frame on while a hopping victim is always chased one reaction behind.
///
/// Sensing is not free: the jammer must *observe* a hop for
/// `estimation_samples` before its bandwidth estimate exists at all, and
/// only then does the `reaction_delay` (decision + retune) clock start.
/// A hop whose dwell is shorter than the estimation latency is never
/// estimated — the jammer deterministically ignores it (no timeline
/// entry, no carry-over) rather than reacting to a measurement it could
/// not have made. `estimation_samples == 0` reproduces the historical
/// ideal-sensing behaviour exactly.
class ReactiveJammer {
 public:
  /// @param available_bws       bandwidths the jammer can produce
  ///                            (fractions of Rs); the observed value
  ///                            snaps to the closest
  /// @param reaction_delay      tau in samples (decision + retune)
  /// @param seed                rng seed
  /// @param estimation_samples  samples of a hop the jammer must see
  ///                            before its bandwidth estimate is usable;
  ///                            0 = ideal instantaneous sensing
  ReactiveJammer(std::vector<double> available_bws, std::size_t reaction_delay,
                 std::uint64_t seed, std::size_t estimation_samples = 0);

  /// Generate `n` samples of unit-power jamming that tracks `hops`
  /// (sorted ascending by start — BHSS_REQUIREd) with the configured
  /// estimation + reaction latency.
  [[nodiscard]] dsp::cvec generate(std::span<const ObservedHop> hops, std::size_t n);

  [[nodiscard]] std::size_t reaction_delay() const noexcept { return reaction_delay_; }
  [[nodiscard]] std::size_t estimation_samples() const noexcept { return estimation_samples_; }

 private:
  std::vector<double> available_bws_;
  std::size_t reaction_delay_;
  std::size_t estimation_samples_;
  std::vector<NoiseJammer> sources_;
  std::size_t current_bw_index_;  ///< idle bandwidth carried across calls
};

}  // namespace bhss::jammer
