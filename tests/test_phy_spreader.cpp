// Unit tests for DSSS spreading/despreading through the PN scrambler,
// including noise tolerance (the 9 dB processing gain of the paper's
// spreading factor 8).

#include <gtest/gtest.h>

#include <array>
#include <random>

#include "phy/spreader.hpp"

namespace bhss::phy {
namespace {

using Chips = std::array<float, kChipsPerSymbol>;

/// The chips of `symbols`, spread one after another.
std::vector<float> spread_all(Spreader& spread, const std::vector<std::uint8_t>& symbols) {
  std::vector<float> out(symbols.size() * kChipsPerSymbol);
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    spread.spread_symbol(symbols[s],
                         std::span<float, kChipsPerSymbol>{out.data() + s * kChipsPerSymbol,
                                                           kChipsPerSymbol});
  }
  return out;
}

class SymbolRoundTrip : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(SymbolRoundTrip, CleanRoundTripWithoutScrambler) {
  // Seed 0 once switched the scrambler off. The scrambler is always on
  // now and the LFSR maps seed 0 to state 1, so the chips on air are not
  // the table row, and the round trip still holds.
  Spreader spread(0);
  Despreader despread(0);
  Chips chips;
  spread.spread_symbol(GetParam(), chips);
  EXPECT_NE(chips, ChipTable::instance().sequence(GetParam()));
  const DespreadResult r = despread.despread_symbol(chips);
  EXPECT_EQ(r.symbol, GetParam());
  EXPECT_FLOAT_EQ(r.correlation, 32.0F);
  EXPECT_LT(r.runner_up, r.correlation);
}

TEST_P(SymbolRoundTrip, CleanRoundTripWithScrambler) {
  Spreader spread(0xC0DE);
  Despreader despread(0xC0DE);
  Chips chips;
  spread.spread_symbol(GetParam(), chips);
  const DespreadResult r = despread.despread_symbol(chips);
  EXPECT_EQ(r.symbol, GetParam());
  EXPECT_FLOAT_EQ(r.correlation, 32.0F);
}

INSTANTIATE_TEST_SUITE_P(AllSymbols, SymbolRoundTrip,
                         ::testing::Range<std::uint8_t>(0, 16));

TEST(Spreader, StreamRoundTrip) {
  const std::vector<std::uint8_t> symbols = {0, 15, 7, 8, 3, 3, 12, 1};
  Spreader spread(0xBEEF);
  Despreader despread(0xBEEF);
  const std::vector<float> chips = spread_all(spread, symbols);
  ASSERT_EQ(chips.size(), symbols.size() * kChipsPerSymbol);
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    const auto chunk =
        std::span<const float>{chips}.subspan(s * kChipsPerSymbol, kChipsPerSymbol);
    EXPECT_EQ(despread.despread_symbol(chunk).symbol, symbols[s]) << "symbol " << s;
  }
}

TEST(Spreader, ScramblerWhitensChips) {
  // The same symbol repeated must produce different over-the-air chips
  // when scrambled (otherwise the jammer could learn the waveform).
  Spreader spread(0x1337);
  Chips first;
  Chips second;
  spread.spread_symbol(5, first);
  spread.spread_symbol(5, second);
  EXPECT_NE(first, second);

  // And neither is the table row that an unscrambled link would send
  // every time.
  EXPECT_NE(first, ChipTable::instance().sequence(5));
  EXPECT_NE(second, ChipTable::instance().sequence(5));
}

TEST(Spreader, MismatchedScramblerBreaksDespreading) {
  const std::vector<std::uint8_t> symbols = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  Spreader spread(0xAAAA);
  Despreader wrong(0xBBBB);
  const std::vector<float> chips = spread_all(spread, symbols);
  std::size_t correct = 0;
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    const auto chunk =
        std::span<const float>{chips}.subspan(s * kChipsPerSymbol, kChipsPerSymbol);
    if (wrong.despread_symbol(chunk).symbol == symbols[s]) ++correct;
  }
  EXPECT_LT(correct, symbols.size() / 2);
}

TEST(Despreader, ToleratesChipNoise) {
  // Soft chips with Gaussian noise at 0 dB per chip: the 32-chip
  // correlation still decides correctly essentially always.
  std::mt19937 rng(5);
  std::normal_distribution<float> noise(0.0F, 1.0F);
  Spreader spread(0x77);
  Despreader despread(0x77);
  std::size_t errors = 0;
  for (std::uint8_t sym = 0; sym < 16; ++sym) {
    for (int trial = 0; trial < 50; ++trial) {
      Chips chips;
      spread.spread_symbol(sym, chips);
      for (float& c : chips) c += noise(rng);
      if (despread.despread_symbol(chips).symbol != sym) ++errors;
    }
  }
  // Re-sync the scrambler by constructing fresh objects per trial is not
  // needed: both sides consumed the same number of chips.
  EXPECT_LE(errors, 4U);  // ~0.5 % at this SNR
}

TEST(Despreader, ToleratesChipErasures) {
  Spreader spread(0x55);
  Despreader despread(0x55);
  Chips chips;
  spread.spread_symbol(9, chips);
  for (std::size_t i = 0; i < 8; ++i) chips[i * 4] = 0.0F;  // erase 8 of 32
  EXPECT_EQ(despread.despread_symbol(chips).symbol, 9);
}

TEST(Despreader, RejectsWrongChipCount) {
  Despreader d(0);
  std::vector<float> chips(31, 1.0F);
  EXPECT_THROW((void)d.despread_symbol(chips), std::invalid_argument);
}

TEST(Spreader, RejectsInvalidSymbol) {
  Spreader s(0);
  Chips chips;
  EXPECT_THROW(s.spread_symbol(16, chips), std::invalid_argument);
}

TEST(ByteSymbolConversion, RoundTrip) {
  const std::vector<std::uint8_t> bytes = {0x00, 0xFF, 0xA7, 0x3C, 0x5A};
  const std::vector<std::uint8_t> symbols = bytes_to_symbols(bytes);
  ASSERT_EQ(symbols.size(), bytes.size() * 2);
  EXPECT_EQ(symbols_to_bytes(symbols), bytes);
}

TEST(ByteSymbolConversion, LowNibbleFirst) {
  const std::vector<std::uint8_t> bytes = {0xA7};
  const std::vector<std::uint8_t> symbols = bytes_to_symbols(bytes);
  EXPECT_EQ(symbols[0], 0x7);
  EXPECT_EQ(symbols[1], 0xA);
}

TEST(ByteSymbolConversion, RejectsOddSymbolCount) {
  const std::vector<std::uint8_t> symbols = {1, 2, 3};
  EXPECT_THROW((void)symbols_to_bytes(symbols), std::invalid_argument);
}

}  // namespace
}  // namespace bhss::phy
