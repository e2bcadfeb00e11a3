#include "phy/crc16.hpp"

namespace bhss::phy {

std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data) noexcept {
  std::uint16_t crc = 0xFFFFU;
  for (std::uint8_t byte : data) {
    crc ^= static_cast<std::uint16_t>(static_cast<unsigned>(byte) << 8);
    for (int bit = 0; bit < 8; ++bit) {
      if (crc & 0x8000U) {
        crc = static_cast<std::uint16_t>((crc << 1) ^ 0x1021U);
      } else {
        crc = static_cast<std::uint16_t>(crc << 1);
      }
    }
  }
  return crc;
}

}  // namespace bhss::phy
