// Unit tests for the QPSK Costas loop: convergence from static phase
// offsets, CFO tracking, lock robustness vs SNR, and reset semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>

#include "channel/awgn.hpp"
#include "channel/impairments.hpp"
#include "dsp/pulse.hpp"
#include "phy/modem.hpp"
#include "sync/costas.hpp"

namespace bhss::sync {
namespace {

/// A long half-sine QPSK waveform (what the loop sees in the receiver).
dsp::cvec qpsk_waveform(std::size_t n_chips, std::size_t sps, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<float> chips(n_chips);
  for (float& c : chips) c = (rng() & 1U) ? 1.0F : -1.0F;
  dsp::cvec wave(n_chips * sps);
  phy::QpskModem(sps).modulate(chips, wave);
  return wave;
}

class PhaseOffsetSweep : public ::testing::TestWithParam<float> {};

TEST_P(PhaseOffsetSweep, ConvergesWithinPullInRange) {
  dsp::cvec x = qpsk_waveform(4096, 4, 1);
  channel::apply_phase(dsp::cspan_mut{x}, GetParam());
  channel::AwgnSource noise(2);
  noise.add_to(dsp::cspan_mut{x}, 0.25 / 4.0);  // ~10 dB per-sample SNR

  CostasLoop loop(0.005F);
  loop.process(dsp::cspan_mut{x});
  const float residual =
      std::remainder(loop.phase() - GetParam(), std::numbers::pi_v<float> / 2.0F);
  // Locks to the offset (modulo the QPSK pi/2 ambiguity).
  EXPECT_NEAR(std::remainder(loop.phase() - GetParam(), 2.0F * std::numbers::pi_v<float>),
              0.0F, 0.1F)
      << "offset " << GetParam();
  (void)residual;
}

INSTANTIATE_TEST_SUITE_P(Offsets, PhaseOffsetSweep,
                         ::testing::Values(-0.6F, -0.3F, -0.1F, 0.0F, 0.1F, 0.3F, 0.6F));

TEST(CostasLoop, TracksSmallCfo) {
  const float cfo = 5e-4F;
  dsp::cvec x = qpsk_waveform(16384, 4, 3);
  channel::apply_cfo(dsp::cspan_mut{x}, cfo);
  channel::AwgnSource noise(4);
  noise.add_to(dsp::cspan_mut{x}, 0.025);

  CostasLoop loop(0.01F);
  loop.process(dsp::cspan_mut{x});
  EXPECT_NEAR(loop.frequency(), cfo, 1e-4F);
}

TEST(CostasLoop, OutputConstellationIsDerotated) {
  const float phase = 0.5F;
  dsp::cvec x = qpsk_waveform(8192, 4, 5);
  const dsp::cvec clean = x;
  channel::apply_phase(dsp::cspan_mut{x}, phase);
  CostasLoop loop(0.01F);
  loop.process(dsp::cspan_mut{x});
  // After convergence (skip the first quarter), output matches the clean
  // waveform.
  double err = 0.0;
  double ref = 0.0;
  for (std::size_t i = x.size() / 4; i < x.size(); ++i) {
    err += std::norm(x[i] - clean[i]);
    ref += std::norm(clean[i]);
  }
  EXPECT_LT(err / ref, 0.01);
}

TEST(CostasLoop, HoldsLockAtZeroDbPerSampleSinr) {
  // The receiver's operating point under heavy (filtered) jamming.
  int slips = 0;
  for (unsigned trial = 0; trial < 10; ++trial) {
    dsp::cvec x = qpsk_waveform(16384, 4, 100 + trial);
    channel::AwgnSource noise(200 + trial);
    noise.add_to(dsp::cspan_mut{x}, 1.0 / 4.0);  // per-sample SINR 0 dB
    CostasLoop loop(0.002F);
    loop.process(dsp::cspan_mut{x});
    if (std::abs(loop.phase()) > std::numbers::pi_v<float> / 4.0F) ++slips;
  }
  EXPECT_LE(slips, 1);
}

TEST(CostasLoop, SlipsAtStronglyNegativeSinr) {
  // Documented failure mode (§6.1: loops must run after the filter): at
  // -10 dB per-sample the decision-directed loop walks off.
  int slips = 0;
  for (unsigned trial = 0; trial < 10; ++trial) {
    dsp::cvec x = qpsk_waveform(32768, 4, 300 + trial);
    channel::AwgnSource noise(400 + trial);
    noise.add_to(dsp::cspan_mut{x}, 10.0 / 4.0);
    CostasLoop loop(0.002F);
    loop.process(dsp::cspan_mut{x});
    if (std::abs(std::remainder(loop.phase(), 2.0F * std::numbers::pi_v<float>)) > 0.3F)
      ++slips;
  }
  EXPECT_GE(slips, 3);
}

TEST(CostasLoop, ResetClearsState) {
  dsp::cvec x = qpsk_waveform(1024, 4, 6);
  channel::apply_phase(dsp::cspan_mut{x}, 1.0F);
  CostasLoop loop(0.01F);
  loop.process(dsp::cspan_mut{x});
  EXPECT_NE(loop.phase(), 0.0F);
  loop.reset();
  EXPECT_EQ(loop.phase(), 0.0F);
  EXPECT_EQ(loop.frequency(), 0.0F);
}

TEST(CostasLoop, FrequencyClamped) {
  // A wide loop on pure noise random-walks its frequency integrator into
  // the 0.5 rad/sample clamp, and never past it.
  CostasLoop loop(0.2F);
  std::mt19937 rng(8);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  float widest = 0.0F;
  for (int i = 0; i < 10000; ++i) {
    (void)loop.process(dsp::cf{dist(rng), dist(rng)});
    ASSERT_LE(std::abs(loop.frequency()), 0.5F);
    widest = std::max(widest, std::abs(loop.frequency()));
  }
  EXPECT_EQ(widest, 0.5F);
}

}  // namespace
}  // namespace bhss::sync
