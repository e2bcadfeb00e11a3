#pragma once

/// @file crc16.hpp
/// CRC-16/CCITT-FALSE frame check sequence. The paper's frame format
/// (§6.1, modelled on IEEE 802.15.4) carries a CRC used to decide whether
/// a packet was received correctly; packet loss in all experiments is
/// defined as "CRC does not match the content".

#include <cstdint>
#include <span>

namespace bhss::phy {

/// Compute CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection,
/// no final xor) over `data`. check("123456789") == 0x29B1.
[[nodiscard]] std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data) noexcept;

}  // namespace bhss::phy
