// Unit tests for the 802.15.4-style frame codec: layout, round trips and
// corruption detection (packet loss == CRC mismatch, §6.2).

#include <gtest/gtest.h>

#include "phy/frame.hpp"
#include "phy/spreader.hpp"

namespace bhss::phy {
namespace {

std::vector<std::uint8_t> test_payload(std::size_t n) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(i * 37 + 5);
  return p;
}

TEST(FrameSpec, SymbolAccounting) {
  EXPECT_EQ(FrameSpec::total_symbols(0), 8U + 2U + 2U + 0U + 4U);
  EXPECT_EQ(FrameSpec::total_symbols(10), 16U + 20U);
}

TEST(Frame, LayoutStartsWithPreambleAndSfd) {
  const auto symbols = build_frame_symbols(test_payload(4));
  ASSERT_EQ(symbols.size(), FrameSpec::total_symbols(4));
  for (std::size_t i = 0; i < FrameSpec::preamble_symbols; ++i) {
    EXPECT_EQ(symbols[i], 0) << "preamble symbol " << i;
  }
  // SFD 0xA7, low nibble first.
  EXPECT_EQ(symbols[8], 0x7);
  EXPECT_EQ(symbols[9], 0xA);
  // Length byte.
  EXPECT_EQ(symbols[10], 4);
  EXPECT_EQ(symbols[11], 0);
}

class FrameRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FrameRoundTrip, BuildThenParse) {
  const auto payload = test_payload(GetParam());
  const auto symbols = build_frame_symbols(payload);
  const auto parsed = parse_frame_symbols(symbols);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, payload);
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, FrameRoundTrip,
                         ::testing::Values(0, 1, 2, 8, 16, 100, 255));

TEST(Frame, RejectsOversizedPayload) {
  EXPECT_THROW((void)build_frame_symbols(test_payload(256)), std::invalid_argument);
}

TEST(Frame, ParseRejectsCorruptedSfd) {
  auto symbols = build_frame_symbols(test_payload(8));
  symbols[9] = 0xB;  // break the SFD
  EXPECT_FALSE(parse_frame_symbols(symbols).has_value());
}

TEST(Frame, ParseRejectsCorruptedPayload) {
  auto symbols = build_frame_symbols(test_payload(8));
  symbols[14] = static_cast<std::uint8_t>((symbols[14] + 1) % 16);
  EXPECT_FALSE(parse_frame_symbols(symbols).has_value());
}

TEST(Frame, ParseRejectsCorruptedCrc) {
  auto symbols = build_frame_symbols(test_payload(8));
  symbols.back() = static_cast<std::uint8_t>((symbols.back() + 1) % 16);
  EXPECT_FALSE(parse_frame_symbols(symbols).has_value());
}

TEST(Frame, ParseRejectsCorruptedLength) {
  auto symbols = build_frame_symbols(test_payload(8));
  symbols[10] = 9;  // wrong length -> CRC over wrong span fails
  EXPECT_FALSE(parse_frame_symbols(symbols).has_value());
}

TEST(Frame, ParseRejectsTruncatedStream) {
  const auto symbols = build_frame_symbols(test_payload(8));
  for (std::size_t keep : {0UL, 5UL, 12UL, symbols.size() - 1}) {
    EXPECT_FALSE(
        parse_frame_symbols(std::span<const std::uint8_t>{symbols}.first(keep)).has_value())
        << "keep=" << keep;
  }
}

TEST(Frame, ParseAcceptsTrailingGarbage) {
  // Extra symbols after the frame must not break parsing (the receiver
  // may decode a few noise symbols past the end).
  auto symbols = build_frame_symbols(test_payload(8));
  symbols.push_back(3);
  symbols.push_back(12);
  const auto parsed = parse_frame_symbols(symbols);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, test_payload(8));
}

TEST(Frame, EverySingleSymbolCorruptionIsDetected) {
  // Flipping any one payload/header/CRC symbol must never yield a valid
  // frame with the wrong payload (preamble symbols are don't-care).
  const auto payload = test_payload(6);
  const auto symbols = build_frame_symbols(payload);
  for (std::size_t i = FrameSpec::preamble_symbols; i < symbols.size(); ++i) {
    auto corrupted = symbols;
    corrupted[i] = static_cast<std::uint8_t>((corrupted[i] + 7) % 16);
    const auto parsed = parse_frame_symbols(corrupted);
    if (parsed.has_value()) {
      EXPECT_EQ(*parsed, payload) << "symbol " << i;  // only harmless flips allowed
    }
  }
}

}  // namespace
}  // namespace bhss::phy
