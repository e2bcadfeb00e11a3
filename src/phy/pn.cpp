#include "phy/pn.hpp"

namespace bhss::phy {
namespace {

/// Galois tap mask xor-ed into the state when the output bit is 1:
/// x^16 + x^14 + x^13 + x^11 + 1, maximal length (period 2^16 - 1).
constexpr std::uint32_t kTaps = 0xB400U;

/// Register length in bits.
constexpr unsigned kLength = 16;
static_assert(kLength < 32, "the register must fit below bit 32");
constexpr std::uint32_t kMask = (1U << kLength) - 1U;

}  // namespace

LfsrPn::LfsrPn(std::uint32_t seed) noexcept : state_(seed & kMask) {
  if (state_ == 0) state_ = 1;  // all-zero is the LFSR's absorbing state
}

bool LfsrPn::next_bit() noexcept {
  // Galois form: shift right, apply the tap mask when a 1 falls out.
  const bool out = (state_ & 1U) != 0;
  state_ >>= 1;
  if (out) state_ ^= kTaps;
  state_ &= kMask;
  return out;
}

float LfsrPn::next_chip() noexcept { return next_bit() ? -1.0F : 1.0F; }

void LfsrPn::fill_chips(std::span<float> out) noexcept {
  for (float& c : out) c = next_chip();
}

}  // namespace bhss::phy
