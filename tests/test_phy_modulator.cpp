// Unit tests for the half-sine QPSK chip modem — the block whose pulse
// duration realises bandwidth hopping (eq. (1)).

#include <gtest/gtest.h>

#include <random>

#include "dsp/psd.hpp"
#include "dsp/utils.hpp"
#include "phy/modem.hpp"

namespace bhss::phy {
namespace {

std::vector<float> random_chips(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<float> chips(n);
  for (float& c : chips) c = (rng() & 1U) ? 1.0F : -1.0F;
  return chips;
}

/// The waveform of `chips` at `sps` samples per chip.
dsp::cvec modulated(std::size_t sps, std::span<const float> chips) {
  dsp::cvec wave(chips.size() * sps);
  QpskModem(sps).modulate(chips, wave);
  return wave;
}

/// Soft chips: the even chip of each matched-filter pair on the real
/// part, the odd one on the imaginary part.
std::vector<float> soft_chips(std::size_t sps, dsp::cspan wave, std::size_t n_chips) {
  const dsp::cvec pairs = QpskModem(sps).demodulate_pairs(wave, n_chips);
  std::vector<float> soft;
  for (const dsp::cf& p : pairs) {
    soft.push_back(p.real());
    soft.push_back(p.imag());
  }
  return soft;
}

class ModulatorSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ModulatorSweep, OutputLengthIsExact) {
  // Every one of the chips * sps output samples carries pulse energy
  // (midpoint sampling), and nothing past them is written.
  const std::size_t sps = GetParam();
  const QpskModem modem(sps);
  const auto chips = random_chips(64, 1);
  const dsp::cf sentinel{9.0F, 9.0F};
  dsp::cvec wave(64 * sps + 1, sentinel);
  modem.modulate(chips, dsp::cspan_mut{wave}.first(64 * sps));
  for (std::size_t i = 0; i < 64 * sps; ++i) {
    ASSERT_NE(wave[i], sentinel) << "sample " << i;
    ASSERT_GT(std::abs(wave[i]), 0.0F) << "sample " << i;
  }
  EXPECT_EQ(wave.back(), sentinel);
  EXPECT_THROW(modem.modulate(chips, wave), std::invalid_argument);
}

TEST_P(ModulatorSweep, NominalPowerIsOneOverSps) {
  // Two unit-energy rails per 2 * sps samples.
  const std::size_t sps = GetParam();
  const dsp::cvec wave = modulated(sps, random_chips(256, 2));
  const double nominal = 1.0 / static_cast<double>(sps);
  EXPECT_NEAR(dsp::mean_power(wave), nominal, nominal * 1e-4);
}

TEST_P(ModulatorSweep, CleanRoundTrip) {
  const std::size_t sps = GetParam();
  const auto chips = random_chips(128, 3);
  const std::vector<float> soft = soft_chips(sps, modulated(sps, chips), chips.size());
  ASSERT_EQ(soft.size(), chips.size());
  for (std::size_t c = 0; c < chips.size(); ++c) {
    EXPECT_GT(soft[c] * chips[c], 0.0F) << "chip " << c;  // correct sign
  }
}

TEST_P(ModulatorSweep, SoftChipsAreUniformMagnitude) {
  // Matched filtering unit-energy pulses at the peak: every soft chip has
  // the same magnitude (no inter-pair interference).
  const std::size_t sps = GetParam();
  const auto chips = random_chips(64, 4);
  const std::vector<float> soft = soft_chips(sps, modulated(sps, chips), chips.size());
  const float ref = std::abs(soft[0]);
  for (float s : soft) EXPECT_NEAR(std::abs(s), ref, ref * 1e-4F);
}

INSTANTIATE_TEST_SUITE_P(SpsLevels, ModulatorSweep, ::testing::Values(2, 4, 8, 16, 32, 64, 128));

TEST(Modulator, PhaseIsConstantWithinAPair) {
  // Non-offset QPSK with a common envelope: the instantaneous phase within
  // one chip pair never changes — the property the Costas loop relies on.
  const std::vector<float> chips = {1.0F, -1.0F};
  const dsp::cvec wave = modulated(8, chips);
  const float ref = std::arg(wave[8]);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    if (std::abs(wave[i]) > 1e-3F) {
      EXPECT_NEAR(std::arg(wave[i]), ref, 1e-4F) << "sample " << i;
    }
  }
}

TEST(Modulator, BandwidthScalesInverselyWithSps) {
  // Eq. (1): stretching the pulse by alpha shrinks the spectrum by alpha.
  // Measured as the 99 % occupied bandwidth of long random-chip waveforms.
  auto measured_bw = [](std::size_t sps) {
    const dsp::cvec wave = modulated(sps, random_chips(8192, 7));
    return dsp::occupied_bandwidth(dsp::welch_psd(wave, 512), 0.99);
  };
  const double bw2 = measured_bw(2);
  const double bw4 = measured_bw(4);
  const double bw16 = measured_bw(16);
  EXPECT_NEAR(bw2 / bw4, 2.0, 0.4);
  EXPECT_NEAR(bw4 / bw16, 4.0, 0.8);
  // Absolute scale: occupied bandwidth is on the order of the chip rate.
  EXPECT_NEAR(bw4 * 4.0, 1.0, 0.5);
}

TEST(Modulator, RejectsInvalidSps) {
  EXPECT_THROW(QpskModem(0), std::invalid_argument);
  EXPECT_THROW(QpskModem(1), std::invalid_argument);
  EXPECT_THROW(QpskModem(3), std::invalid_argument);
  EXPECT_THROW((void)QpskModem::of(5), std::invalid_argument);
}

TEST(Modulator, OneModemPerSpsIsShared) {
  EXPECT_EQ(&QpskModem::of(8), &QpskModem::of(8));
  EXPECT_NE(&QpskModem::of(8), &QpskModem::of(16));
}

TEST(Modulator, RejectsOddChipCount) {
  const QpskModem modem(4);
  const std::vector<float> chips(3, 1.0F);
  dsp::cvec wave(12);
  EXPECT_THROW(modem.modulate(chips, wave), std::invalid_argument);
}

TEST(Demodulator, RejectsShortInput) {
  const QpskModem modem(4);
  const dsp::cvec wave(10);
  EXPECT_THROW((void)modem.demodulate_pairs(wave, 4), std::invalid_argument);
}

}  // namespace
}  // namespace bhss::phy
