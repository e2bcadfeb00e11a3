#pragma once

/// @file frame.hpp
/// Frame format, modelled on IEEE 802.15.4 as in the paper's §6.1:
/// preamble (8 zero symbols), start-of-frame delimiter (0xA7), a length
/// byte, payload and CRC-16. A packet loss is "CRC does not match".

#include <cstdint>
#include <optional>
#include <vector>

#include "dsp/types.hpp"

namespace bhss::phy {

/// Frame layout constants (in 4-bit symbols).
struct FrameSpec {
  static constexpr std::size_t preamble_symbols = 8;  ///< 4 bytes of 0x00
  static constexpr std::size_t sfd_symbols = 2;       ///< one byte 0xA7
  static constexpr std::size_t length_symbols = 2;    ///< one length byte
  static constexpr std::size_t crc_symbols = 4;       ///< two CRC bytes
  static constexpr std::uint8_t sfd_byte = 0xA7;
  static constexpr std::size_t max_payload = 255;

  /// Total symbols of a frame with `payload_len` payload bytes.
  [[nodiscard]] static constexpr std::size_t total_symbols(std::size_t payload_len) noexcept {
    return preamble_symbols + sfd_symbols + length_symbols + 2 * payload_len + crc_symbols;
  }
};

/// Build the full symbol stream for a payload: preamble, SFD, length,
/// payload, CRC-16 over (length byte + payload).
/// @throws std::invalid_argument if payload exceeds FrameSpec::max_payload.
[[nodiscard]] std::vector<std::uint8_t> build_frame_symbols(
    std::span<const std::uint8_t> payload);

/// Parse a symbol stream that starts at the preamble.
/// @returns the payload iff the SFD matches, the length is consistent with
/// the available symbols, and the CRC checks out; std::nullopt otherwise.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> parse_frame_symbols(
    std::span<const std::uint8_t> symbols);

}  // namespace bhss::phy
