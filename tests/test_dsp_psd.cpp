// Unit tests for PSD estimation: power normalisation, tone localisation,
// estimator variance ordering and occupied-bandwidth measurement.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <random>

#include "dsp/psd.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/utils.hpp"

namespace bhss::dsp {
namespace {

cvec white_noise(std::size_t n, double power, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0F, static_cast<float>(std::sqrt(power / 2.0)));
  cvec x(n);
  for (cf& v : x) v = cf{dist(rng), dist(rng)};
  return x;
}

TEST(WelchPsd, TotalPowerMatchesSignalPower) {
  const cvec x = white_noise(65536, 2.0, 1);
  const fvec psd = welch_psd(x, 256);
  EXPECT_NEAR(psd_total_power(psd), 2.0, 0.1);
}

TEST(WelchPsd, WhiteNoiseIsFlat) {
  const cvec x = white_noise(1 << 18, 1.0, 2);
  const fvec psd = welch_psd(x, 128);
  const double mean_bin = psd_total_power(psd) / 128.0;
  for (std::size_t k = 0; k < psd.size(); ++k) {
    EXPECT_NEAR(psd[k] / mean_bin, 1.0, 0.35) << "bin " << k;
  }
}

TEST(WelchPsd, ToneConcentratesAtItsBin) {
  const std::size_t n = 8192;
  const std::size_t fft = 256;
  const double freq = 32.0 / static_cast<double>(fft);  // exactly bin 32
  cvec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = 2.0 * std::numbers::pi * freq * static_cast<double>(i);
    x[i] = cf{static_cast<float>(std::cos(ang)), static_cast<float>(std::sin(ang))};
  }
  const fvec psd = welch_psd(x, fft, 0.5, Window::hann);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < fft; ++k) {
    if (psd[k] > psd[peak]) peak = k;
  }
  EXPECT_EQ(peak, 32U);
  // The peak neighbourhood must hold nearly all the power.
  double near = 0.0;
  for (std::size_t k = 30; k <= 34; ++k) near += psd[k];
  EXPECT_GT(near / psd_total_power(psd), 0.95);
}

TEST(WelchPsd, ShortInputZeroPads) {
  const cvec x = white_noise(50, 1.0, 3);
  const fvec psd = welch_psd(x, 128);
  ASSERT_EQ(psd.size(), 128U);
  // Zero padding spreads the 50 samples' power over the 128-bin frame.
  EXPECT_NEAR(psd_total_power(psd), 1.0 * 50.0 / 128.0, 0.25);
}

/// FNV-1a 64 over the float words of a PSD, least significant byte first.
std::uint64_t fnv1a(const fvec& psd) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (float p : psd) {
    std::uint32_t w = 0;
    std::memcpy(&w, &p, sizeof w);
    for (int b = 0; b < 4; ++b) {
      h ^= (w >> (8 * b)) & 0xFFU;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

TEST(WelchPsd, OutputIsPinned) {
  // The exact bins of the estimate behind every filter decision, so a
  // change to the window, the segment walk, the FFT or the normalisation
  // fails in every build: fft 32 over 256 samples (the narrowest
  // detection estimate of a short hop), 256 and 2048 over 16384.
  simd::Mt19937_64 eng(0x3E1C4);
  cvec x(16384);
  for (cf& v : x) {
    const float re = static_cast<float>(eng() >> 40) * 0x1p-23F - 1.0F;
    const float im = static_cast<float>(eng() >> 40) * 0x1p-23F - 1.0F;
    v = cf{re, im};
  }
  struct Pin {
    std::size_t fft;
    std::size_t samples;
    std::uint64_t digest;
  };
  const std::vector<Pin> pins = {
      {32, 256, 0xF91140D2456B921CULL},
      {256, 16384, 0x2FC19BF8A9AAD5BEULL},
      {2048, 16384, 0x23A18954E2B10406ULL},
  };
  for (const Pin& pin : pins) {
    const fvec psd = welch_psd(cspan{x}.first(pin.samples), pin.fft);
    EXPECT_EQ(fnv1a(psd), pin.digest) << "fft=" << pin.fft << " isa=" << simd::active_isa();
  }
}

TEST(WelchPsd, RejectsBadArgs) {
  const cvec x = white_noise(64, 1.0, 4);
  EXPECT_THROW(welch_psd(x, 100), std::invalid_argument);
  EXPECT_THROW(welch_psd(x, 64, 0.99), std::invalid_argument);
  EXPECT_THROW(welch_psd(cvec{}, 64), std::invalid_argument);
}

TEST(PsdEstimators, WelchHasLowerVarianceThanPeriodogram) {
  // Estimator variance measured as spread of per-bin values for white noise.
  const cvec x = white_noise(1 << 15, 1.0, 5);
  auto bin_variance = [](const fvec& psd) {
    double mean = psd_total_power(psd) / static_cast<double>(psd.size());
    double acc = 0.0;
    for (float p : psd) acc += (p - mean) * (p - mean);
    return acc / (static_cast<double>(psd.size()) * mean * mean);
  };
  const double var_welch = bin_variance(welch_psd(x, 128, 0.5, Window::hann));
  const double var_bartlett = bin_variance(bartlett_psd(x, 128));
  const double var_single = bin_variance(periodogram(x, 128));
  EXPECT_LT(var_welch, var_single * 0.2);
  EXPECT_LT(var_bartlett, var_single * 0.2);
}

class OccupiedBandwidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(OccupiedBandwidthSweep, MatchesShapedNoiseBandwidth) {
  // Build band-limited noise by brute force in the frequency domain:
  // keep only bins within +-bw/2.
  const double bw = GetParam();
  const std::size_t fft = 512;
  const cvec x = white_noise(1 << 16, 1.0, 17);
  fvec psd = welch_psd(x, fft);
  for (std::size_t k = 0; k < fft; ++k) {
    double f = static_cast<double>(k) / fft;
    if (f >= 0.5) f -= 1.0;
    if (std::abs(f) > bw / 2.0) psd[k] = 0.0F;
  }
  const double measured = occupied_bandwidth(psd, 0.99);
  EXPECT_NEAR(measured, bw, bw * 0.2 + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, OccupiedBandwidthSweep,
                         ::testing::Values(0.05, 0.1, 0.25, 0.5, 0.9));

TEST(OccupiedBandwidth, FullBandNoise) {
  fvec psd(64, 1.0F);
  EXPECT_NEAR(occupied_bandwidth(psd, 0.99), 1.0, 0.05);
}

TEST(OccupiedBandwidth, SingleBin) {
  fvec psd(64, 0.0F);
  psd[0] = 1.0F;
  EXPECT_NEAR(occupied_bandwidth(psd, 0.99), 1.0 / 64.0, 1e-6);
}

}  // namespace
}  // namespace bhss::dsp
