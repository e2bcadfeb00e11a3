#pragma once

/// @file hop_pattern.hpp
/// Bandwidth hopping patterns (§6.4.1, Table 1). A pattern is a draw
/// distribution over the bandwidth set:
///  * linear      — uniform over the levels,
///  * exponential — probability proportional to bandwidth, which equalises
///                  the *time* spent at each bandwidth (a hop lasts a fixed
///                  number of symbols, so narrow hops last longer),
///  * parabolic   — the Monte-Carlo optimised distribution that maximises
///                  the minimum power advantage over all jammer bandwidths
///                  (favours the band edges, where filtering works best).

#include <string>
#include <vector>

#include "core/bandwidth_set.hpp"
#include "core/shared_random.hpp"

namespace bhss::core {

enum class HopPatternType { linear, exponential, parabolic };

/// Name of a pattern type ("linear" / "exponential" / "parabolic").
[[nodiscard]] std::string to_string(HopPatternType t);

/// A draw distribution over a BandwidthSet.
class HopPattern {
 public:
  /// Build one of the three named patterns. `parabolic` uses the paper's
  /// published Table 1 distribution when the set has exactly 7 levels,
  /// otherwise a symmetric edge-weighted parabola over the levels.
  [[nodiscard]] static HopPattern make(HopPatternType type, const BandwidthSet& bands);

  /// A custom distribution (probabilities are normalised internally).
  [[nodiscard]] static HopPattern custom(const BandwidthSet& bands,
                                         std::vector<double> probabilities);

  /// A degenerate "pattern" that always picks one level (hopping off).
  [[nodiscard]] static HopPattern fixed(const BandwidthSet& bands, std::size_t level);

  /// The one level a fixed pattern picks: where a link with hopping off
  /// transmits. BHSS_REQUIREs that exactly one level has a nonzero
  /// probability.
  [[nodiscard]] std::size_t fixed_level() const;

  [[nodiscard]] const BandwidthSet& bands() const noexcept { return bands_; }
  [[nodiscard]] const std::vector<double>& probabilities() const noexcept { return probs_; }

  /// Draw a bandwidth level from the shared random source.
  [[nodiscard]] std::size_t draw(SharedRandom& rng) const noexcept;

  /// Expected bandwidth E_p[B] in Hz (Table 1 discussion: 2.83 / 6.72 /
  /// 3.77 MHz for linear / exponential / parabolic).
  [[nodiscard]] double average_bandwidth_hz() const;

  /// The paper's average throughput figure: E_p[B] * bits_per_symbol /
  /// chips_per_symbol / ... = E_p[B] / 8 for the 4-bit/32-chip DSSS
  /// (354 / 840 / 471 kb/s for the three patterns).
  [[nodiscard]] double average_throughput_bps() const;

  /// Time-weighted throughput under equal-symbols-per-hop dwell (each hop
  /// carries the same symbol count, narrow hops last longer): total bits /
  /// total time = bits_per_symbol / E_p[T_symbol].
  [[nodiscard]] double time_weighted_throughput_bps() const;

 private:
  HopPattern(BandwidthSet bands, std::vector<double> probs);

  BandwidthSet bands_;
  std::vector<double> probs_;
};

}  // namespace bhss::core
