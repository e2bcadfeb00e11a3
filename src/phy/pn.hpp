#pragma once

/// @file pn.hpp
/// Pseudo-noise chip generation. BHSS (like DSSS) derives its spreading
/// randomness from a seed shared between transmitter and receiver; the
/// jammer cannot predict the chip stream. We use a Fibonacci LFSR with
/// maximal-length taps, plus a scrambler helper that whitens the fixed
/// 802.15.4 chip table so the over-the-air chip stream is unpredictable.

#include <cstdint>

#include "core/contracts.hpp"
#include "dsp/types.hpp"

namespace bhss::phy {

/// Maximal-length 16-bit Galois LFSR over GF(2) with the taps of
/// x^16 + x^14 + x^13 + x^11 + 1 (period 65535).
class LfsrPn {
 public:
  /// @param seed  non-zero initial register state (zero is re-mapped to 1).
  explicit LfsrPn(std::uint32_t seed) noexcept;

  /// Next chip as 0/1.
  [[nodiscard]] BHSS_HOT bool next_bit() noexcept;

  /// Next chip as +1.0f / -1.0f (bit 0 -> +1, bit 1 -> -1).
  [[nodiscard]] BHSS_HOT float next_chip() noexcept;

  /// Fill a buffer with +-1 chips.
  BHSS_HOT void fill_chips(std::span<float> out) noexcept;

  /// Current register state (for tests).
  [[nodiscard]] std::uint32_t state() const noexcept { return state_; }

 private:
  std::uint32_t state_;
};

}  // namespace bhss::phy
