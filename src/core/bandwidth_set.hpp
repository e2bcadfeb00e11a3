#pragma once

/// @file bandwidth_set.hpp
/// The discrete set of signal bandwidths BHSS hops over. The paper (§6.2)
/// uses seven bandwidths 10, 5, 2.5, 1.25, 0.625, 0.3125, 0.15625 MHz at a
/// fixed 20 MS/s sampling rate (hopping range 64). Bandwidth is realised
/// by the samples-per-chip factor: B = Rs / sps, sps in {2, 4, ..., 128}.

#include <cstddef>
#include <vector>

namespace bhss::core {

/// An ordered set of hoppable bandwidths (widest first, as in Table 1).
class BandwidthSet {
 public:
  /// @param sample_rate_hz  front-end sampling rate (constant across hops,
  ///                        §6.1: switching Rs would cost processing delay)
  /// @param sps_levels      even samples-per-chip factors, ascending
  ///                        (ascending sps = descending bandwidth)
  BandwidthSet(double sample_rate_hz, std::vector<std::size_t> sps_levels);

  /// The paper's configuration: 20 MS/s, sps in {2,4,8,16,32,64,128}.
  [[nodiscard]] static BandwidthSet paper();

  /// A reduced configuration for fast tests: 20 MS/s, sps in {2,4,8,16}.
  [[nodiscard]] static BandwidthSet small();

  [[nodiscard]] std::size_t size() const noexcept { return sps_levels_.size(); }
  [[nodiscard]] double sample_rate_hz() const noexcept { return sample_rate_hz_; }
  [[nodiscard]] std::size_t sps(std::size_t i) const { return sps_levels_.at(i); }

  /// Occupied bandwidth of level i in Hz (= chip rate = Rs / sps).
  [[nodiscard]] double bandwidth_hz(std::size_t i) const {
    return sample_rate_hz_ / static_cast<double>(sps_levels_.at(i));
  }

  /// Bandwidth as a fraction of the sampling rate (= 1 / sps).
  [[nodiscard]] double bandwidth_frac(std::size_t i) const {
    return 1.0 / static_cast<double>(sps_levels_.at(i));
  }

  /// max(Bp) / min(Bp), e.g. 64 for the paper set.
  [[nodiscard]] double hopping_range() const noexcept;

  /// Index of the widest bandwidth (smallest sps). Levels are ascending in
  /// sps, so this is 0.
  [[nodiscard]] std::size_t widest_index() const noexcept { return 0; }
  [[nodiscard]] std::size_t narrowest_index() const noexcept { return size() - 1; }

  /// All bandwidth fractions, widest first.
  [[nodiscard]] std::vector<double> bandwidth_fracs() const;

 private:
  double sample_rate_hz_;
  std::vector<std::size_t> sps_levels_;
};

}  // namespace bhss::core
