// Unit tests for complex-pair despreading — the phase-measuring detector
// that feeds the receiver's decision-directed carrier tracker.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numbers>
#include <random>

#include "phy/spreader.hpp"

namespace bhss::phy {
namespace {

/// Chip pairs of one spread symbol, optionally rotated and noisy
/// (noise_sigma 0 draws no noise: a normal distribution needs a positive
/// standard deviation).
dsp::cvec make_pairs(std::uint8_t symbol, std::uint32_t seed, float phase,
                     float noise_sigma, unsigned noise_seed) {
  Spreader spread(seed);
  std::array<float, kChipsPerSymbol> chips;
  spread.spread_symbol(symbol, chips);
  dsp::cvec pairs(kChipsPerSymbol / 2);
  const dsp::cf rot{std::cos(phase), std::sin(phase)};
  for (std::size_t m = 0; m < pairs.size(); ++m) {
    pairs[m] = dsp::cf{chips[2 * m], chips[2 * m + 1]} * rot;
  }
  if (noise_sigma > 0.0F) {
    std::mt19937 rng(noise_seed);
    std::normal_distribution<float> dist(0.0F, noise_sigma);
    for (dsp::cf& p : pairs) p += dsp::cf{dist(rng), dist(rng)};
  }
  return pairs;
}

class PairSymbolSweep : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(PairSymbolSweep, CleanRoundTrip) {
  Despreader d(0x123);
  const dsp::cvec pairs = make_pairs(GetParam(), 0x123, 0.0F, 0.0F, 1);
  const DespreadPairsResult r = d.despread_pairs(pairs);
  EXPECT_EQ(r.symbol, GetParam());
  EXPECT_NEAR(r.correlation.real(), 32.0F, 1e-4F);
  EXPECT_NEAR(r.correlation.imag(), 0.0F, 1e-4F);
  EXPECT_NEAR(r.coherence, 1.0F, 1e-5F);
}

INSTANTIATE_TEST_SUITE_P(AllSymbols, PairSymbolSweep, ::testing::Range<std::uint8_t>(0, 16));

class PairPhaseSweep : public ::testing::TestWithParam<float> {};

TEST_P(PairPhaseSweep, MeasuresResidualPhaseUnambiguously) {
  // Unlike a blind QPSK detector, the despread correlation has no pi/2
  // ambiguity: the chip sequence itself is the phase reference. The
  // coherent (real-part) decision tolerates the small residual rotations
  // the receiver's tracker leaves behind; within that range the measured
  // argument equals the true rotation.
  const float phase = GetParam();
  Despreader d(0x77);
  const dsp::cvec pairs = make_pairs(9, 0x77, phase, 0.05F, 2);
  const DespreadPairsResult r = d.despread_pairs(pairs);
  EXPECT_EQ(r.symbol, 9);
  EXPECT_NEAR(std::arg(r.correlation), phase, 0.05F) << "phase " << phase;
}

INSTANTIATE_TEST_SUITE_P(Phases, PairPhaseSweep,
                         ::testing::Values(-0.35F, -0.2F, -0.1F, 0.0F, 0.1F, 0.2F, 0.35F));

TEST(DespreadPairs, CoherenceDropsUnderNoise) {
  Despreader clean_d(0x55);
  Despreader noisy_d(0x55);
  const dsp::cvec clean = make_pairs(3, 0x55, 0.0F, 0.0F, 3);
  const dsp::cvec noisy = make_pairs(3, 0x55, 0.0F, 2.0F, 4);
  const float c_clean = clean_d.despread_pairs(clean).coherence;
  const float c_noisy = noisy_d.despread_pairs(noisy).coherence;
  EXPECT_GT(c_clean, 0.95F);
  EXPECT_LT(c_noisy, c_clean);
}

TEST(DespreadPairs, AgreesWithRealDespreadingWhenAligned) {
  // At zero phase offset both detectors must pick the same symbol.
  std::mt19937 rng(5);
  for (int trial = 0; trial < 32; ++trial) {
    const auto sym = static_cast<std::uint8_t>(rng() % 16);
    Despreader d_pairs(0xABC);
    Despreader d_real(0xABC);
    const dsp::cvec pairs = make_pairs(sym, 0xABC, 0.0F, 0.5F, 100 + trial);
    std::vector<float> soft(kChipsPerSymbol);
    for (std::size_t m = 0; m < pairs.size(); ++m) {
      soft[2 * m] = pairs[m].real();
      soft[2 * m + 1] = pairs[m].imag();
    }
    EXPECT_EQ(d_pairs.despread_pairs(pairs).symbol, d_real.despread_symbol(soft).symbol)
        << "trial " << trial;
  }
}

TEST(DespreadPairs, RejectsWrongPairCount) {
  Despreader d(0);
  dsp::cvec pairs(15);
  EXPECT_THROW((void)d.despread_pairs(pairs), std::invalid_argument);
}

TEST(DespreadPairs, ScramblerStreamsStayAligned) {
  // Interleaving despread_pairs calls must consume the scrambler exactly
  // like spread_symbol does on the transmit side.
  Spreader spread(0xF00D);
  Despreader despread(0xF00D);
  const std::vector<std::uint8_t> symbols = {1, 14, 7, 0, 9, 9, 2, 15};
  for (std::uint8_t sym : symbols) {
    std::array<float, kChipsPerSymbol> chips;
    spread.spread_symbol(sym, chips);
    dsp::cvec pairs(kChipsPerSymbol / 2);
    for (std::size_t m = 0; m < pairs.size(); ++m) {
      pairs[m] = dsp::cf{chips[2 * m], chips[2 * m + 1]};
    }
    EXPECT_EQ(despread.despread_pairs(pairs).symbol, sym);
  }
}

}  // namespace
}  // namespace bhss::phy
