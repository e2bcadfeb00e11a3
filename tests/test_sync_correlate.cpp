// Unit tests for the sliding correlation primitives behind frame sync.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>

#include "sync/correlate.hpp"

namespace bhss::sync {
namespace {

dsp::cvec random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  dsp::cvec x(n);
  for (dsp::cf& v : x) v = dsp::cf{dist(rng), dist(rng)};
  return x;
}

TEST(CorrelateHalves, MatchesManualComputation) {
  const dsp::cvec x = {dsp::cf{1, 0}, dsp::cf{0, 1}, dsp::cf{-1, 0}, dsp::cf{2, 2}};
  const dsp::cvec ref = {dsp::cf{1, 0}, dsp::cf{0, 1}};
  // lag 0: x0*conj(r0) = 1 and x1*conj(r1) = (0+1i)(-i) = 1; together 2.
  const HalfCorrelations c0 = correlate_halves(x, ref, 0);
  EXPECT_NEAR(c0.first.real(), 1.0F, 1e-6F);
  EXPECT_NEAR(c0.first.imag(), 0.0F, 1e-6F);
  EXPECT_NEAR(c0.second.real(), 1.0F, 1e-6F);
  EXPECT_NEAR(c0.second.imag(), 0.0F, 1e-6F);
  // lag 2: x2*conj(r0) = -1 and x3*conj(r1) = (2+2i)(-i) = 2 - 2i;
  // together 1 - 2i.
  const HalfCorrelations c2 = correlate_halves(x, ref, 2);
  EXPECT_NEAR(c2.first.real(), -1.0F, 1e-6F);
  EXPECT_NEAR(c2.first.imag(), 0.0F, 1e-6F);
  EXPECT_NEAR(c2.second.real(), 2.0F, 1e-6F);
  EXPECT_NEAR(c2.second.imag(), -2.0F, 1e-6F);
  // An odd reference: the second half takes the extra term.
  const dsp::cvec odd = {dsp::cf{1, 0}, dsp::cf{0, 1}, dsp::cf{1, 0}};
  const HalfCorrelations c1 = correlate_halves(x, odd, 1);
  EXPECT_NEAR(c1.first.real(), 0.0F, 1e-6F);
  EXPECT_NEAR(c1.first.imag(), 1.0F, 1e-6F);
  EXPECT_NEAR(c1.second.real(), 2.0F, 1e-6F);  // (-1)(-i) + (2+2i) = 2 + 3i
  EXPECT_NEAR(c1.second.imag(), 3.0F, 1e-6F);
}

TEST(CorrelateHalves, RejectsOutOfRangeLag) {
  const dsp::cvec x = random_signal(8, 1);
  const dsp::cvec ref = random_signal(4, 2);
  EXPECT_THROW((void)correlate_halves(x, ref, 5), std::invalid_argument);
  EXPECT_THROW((void)correlate_halves(x, ref, ~std::size_t{0}), std::invalid_argument);
}

TEST(CorrelateSearch, FindsEmbeddedReference) {
  const dsp::cvec ref = random_signal(64, 3);
  dsp::cvec x = random_signal(256, 4);
  for (auto& v : x) v *= 0.05F;  // weak background
  const std::size_t true_lag = 100;
  for (std::size_t i = 0; i < ref.size(); ++i) x[true_lag + i] += ref[i];

  const CorrelationPeak peak = correlate_search(x, ref, 192);
  EXPECT_EQ(peak.offset, true_lag);
  EXPECT_GT(peak.normalized, 0.9F);
}

TEST(CorrelateSearch, NormalizedIsOneOnExactMatch) {
  const dsp::cvec ref = random_signal(32, 5);
  dsp::cvec x(100, dsp::cf{0.0F, 0.0F});
  for (std::size_t i = 0; i < ref.size(); ++i) x[20 + i] = 2.5F * ref[i];  // scaled copy
  const CorrelationPeak peak = correlate_search(x, ref, 68);
  EXPECT_EQ(peak.offset, 20U);
  EXPECT_NEAR(peak.normalized, 1.0F, 1e-4F);
}

TEST(CorrelateSearch, PhaseRotationPreservedInPeakValue) {
  const dsp::cvec ref = random_signal(48, 6);
  const float phase = 1.1F;
  dsp::cvec x(128, dsp::cf{0.0F, 0.0F});
  const dsp::cf rot{std::cos(phase), std::sin(phase)};
  for (std::size_t i = 0; i < ref.size(); ++i) x[10 + i] = ref[i] * rot;
  const CorrelationPeak peak = correlate_search(x, ref, 80);
  EXPECT_EQ(peak.offset, 10U);
  EXPECT_NEAR(std::arg(peak.value), phase, 1e-3F);
}

TEST(CorrelateSearch, MaxLagClamped) {
  const dsp::cvec ref = random_signal(16, 7);
  dsp::cvec x(40, dsp::cf{0.0F, 0.0F});
  for (std::size_t i = 0; i < ref.size(); ++i) x[24 + i] = ref[i];
  // max_lag beyond what fits is clamped, and the true peak is still found.
  const CorrelationPeak peak = correlate_search(x, ref, 10000);
  EXPECT_EQ(peak.offset, 24U);
}

TEST(CorrelateSearch, RejectsRefLongerThanSignal) {
  EXPECT_THROW((void)correlate_search(random_signal(4, 8), random_signal(8, 9), 4),
               std::invalid_argument);
}

TEST(CorrelateSearch, NoiseOnlyGivesLowNormalizedPeak) {
  const dsp::cvec ref = random_signal(128, 10);
  const dsp::cvec x = random_signal(1024, 11);
  const CorrelationPeak peak = correlate_search(x, ref, 800);
  EXPECT_LT(peak.normalized, 0.5F);
}

}  // namespace
}  // namespace bhss::sync
