// Unit tests for the CRC-16/CCITT-FALSE frame check sequence.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "phy/crc16.hpp"

namespace bhss::phy {
namespace {

std::vector<std::uint8_t> bytes(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s),
          reinterpret_cast<const std::uint8_t*>(s) + std::strlen(s)};
}

TEST(Crc16, StandardCheckValue) {
  // CRC-16/CCITT-FALSE("123456789") == 0x29B1 (canonical check value).
  EXPECT_EQ(crc16_ccitt(bytes("123456789")), 0x29B1);
}

TEST(Crc16, EmptyInputIsInit) {
  EXPECT_EQ(crc16_ccitt({}), 0xFFFF);
}

TEST(Crc16, KnownSingleBytes) {
  EXPECT_EQ(crc16_ccitt(bytes("A")), 0xB915);
  const std::vector<std::uint8_t> zero = {0x00};
  EXPECT_EQ(crc16_ccitt(zero), 0xE1F0);
}

class CrcBitFlipSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CrcBitFlipSweep, DetectsEverySingleBitError) {
  auto data = bytes("BHSS frame payload for error detection");
  const std::uint16_t good = crc16_ccitt(data);
  const std::size_t byte_idx = GetParam();
  for (int bit = 0; bit < 8; ++bit) {
    data[byte_idx] ^= static_cast<std::uint8_t>(1U << bit);
    EXPECT_NE(crc16_ccitt(data), good) << "byte " << byte_idx << " bit " << bit;
    data[byte_idx] ^= static_cast<std::uint8_t>(1U << bit);
  }
}

INSTANTIATE_TEST_SUITE_P(Positions, CrcBitFlipSweep,
                         ::testing::Values(0, 1, 5, 17, 30, 37));

TEST(Crc16, DetectsTranspositions) {
  auto a = bytes("AB");
  auto b = bytes("BA");
  EXPECT_NE(crc16_ccitt(a), crc16_ccitt(b));
}

TEST(Crc16, DetectsAllDoubleBitErrorsInShortFrame) {
  const std::vector<std::uint8_t> data = {0xDE, 0xAD, 0xBE, 0xEF};
  const std::uint16_t good = crc16_ccitt(data);
  const std::size_t n_bits = data.size() * 8;
  for (std::size_t i = 0; i < n_bits; ++i) {
    for (std::size_t j = i + 1; j < n_bits; ++j) {
      auto corrupted = data;
      corrupted[i / 8] ^= static_cast<std::uint8_t>(1U << (i % 8));
      corrupted[j / 8] ^= static_cast<std::uint8_t>(1U << (j % 8));
      EXPECT_NE(crc16_ccitt(corrupted), good) << "bits " << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace bhss::phy
