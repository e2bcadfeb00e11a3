// Unit tests for the QPSK Costas loop: convergence from static phase
// offsets, CFO tracking, lock robustness vs SNR, and reset semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <random>

#include "channel/awgn.hpp"
#include "channel/impairments.hpp"
#include "dsp/pulse.hpp"
#include "dsp/utils.hpp"
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

/// FNV-1a 64 over the loop's output words, then its final phase and
/// frequency, each least significant byte first.
std::uint64_t loop_digest(std::uint64_t h, const dsp::cvec& y, const CostasLoop& loop) {
  const auto add = [&h](std::uint32_t w) {
    for (int b = 0; b < 4; ++b) {
      h ^= (w >> (8 * b)) & 0xFFU;
      h *= 0x100000001B3ULL;
    }
  };
  for (std::size_t i = 0; i < 2 * y.size(); ++i) {
    std::uint32_t w = 0;
    std::memcpy(&w, reinterpret_cast<const float*>(y.data()) + i, sizeof(w));
    add(w);
  }
  add(std::bit_cast<std::uint32_t>(loop.phase()));
  add(std::bit_cast<std::uint32_t>(loop.frequency()));
  return h;
}

TEST(CostasLoop, OutputIsPinned) {
  // The exact bits, by digest, of the receiver's carrier tracking: seeded
  // pulse-shaped hops at three pulse lengths with a phase offset, a CFO
  // and noise, each with a run of exact zeros inside and at its end (a
  // hop read past the end of its capture). Each is tracked as it is (row
  // 0), and after the per-hop rotation by the residual-phase model, for a
  // zero ramp and ramps whose angle crosses 2^-12, 0.75 and +-120 rad (the
  // branches of the sincos replica). Each ramp runs three ways against one
  // pin: `dsp::rotate` by the model's angle written out, then `process`;
  // `track` in place; and `track` from the hop without its zero tail into
  // the full-length output. Lock and CFO tests pass a change that moves
  // the last bit of one sample; this one does not.
  const std::array<PhaseRamp, 5> ramps = {{
      {0.0, 0.0, 0, 0.0},
      {-2e-4, -1e-8, 0, 0.0},
      {-0.74, -3e-6, 1000, 2000.5},
      {119.98, 1e-5, 0, 0.0},
      {-119.99, -1e-5, 300, 150.5},
  }};
  const std::array<std::uint64_t, ramps.size() + 1> pins = {
      0xF7D6396872AF0F35ULL, 0xF7D6396872AF0F35ULL, 0xEEFAAC107E286DADULL,
      0xE6296DC6A9A04C6FULL, 0x31BD05741994295AULL, 0x6980B810FABEACE2ULL,
  };
  constexpr std::size_t kZeroTail = 1000;
  std::array<std::uint64_t, ramps.size() + 1> got{};
  got.fill(0xCBF29CE484222325ULL);
  std::array<std::uint64_t, ramps.size()> got_in_place{};
  got_in_place.fill(0xCBF29CE484222325ULL);
  std::array<std::uint64_t, ramps.size()> got_short{};
  got_short.fill(0xCBF29CE484222325ULL);
  const std::array<std::size_t, 3> sps = {2, 8, 64};
  for (std::size_t h = 0; h < sps.size(); ++h) {
    dsp::cvec x = qpsk_waveform(8192 / sps[h], sps[h], 20 + static_cast<unsigned>(h));
    channel::apply_phase(dsp::cspan_mut{x}, 0.3F + 0.5F * static_cast<float>(h));
    channel::apply_cfo(dsp::cspan_mut{x}, 2e-4F);
    channel::AwgnSource(30 + h).add_to(dsp::cspan_mut{x}, 0.05);
    std::fill(x.begin() + 2000, x.begin() + 2050, dsp::cf{0.0F, 0.0F});
    std::fill(x.end() - kZeroTail, x.end(), dsp::cf{0.0F, 0.0F});

    dsp::cvec y = x;
    CostasLoop plain(0.002F);
    plain.process(dsp::cspan_mut{y});
    got[0] = loop_digest(got[0], y, plain);

    for (std::size_t r = 0; r < ramps.size(); ++r) {
      const PhaseRamp& m = ramps[r];
      dsp::cvec z = x;
      dsp::rotate(z, [&m](std::size_t i) {
        const double t = static_cast<double>(m.start + i);
        return static_cast<float>(-(m.phase + m.cfo * (t - m.anchor)));
      });
      CostasLoop loop(0.002F);
      loop.process(dsp::cspan_mut{z});
      got[r + 1] = loop_digest(got[r + 1], z, loop);

      dsp::cvec w = x;
      CostasLoop in_place(0.002F);
      in_place.track(w, m, w);
      got_in_place[r] = loop_digest(got_in_place[r], w, in_place);

      dsp::cvec out(x.size(), dsp::cf{1.0F, 1.0F});
      CostasLoop short_in(0.002F);
      short_in.track(dsp::cspan{x}.first(x.size() - kZeroTail), m, out);
      got_short[r] = loop_digest(got_short[r], out, short_in);
    }
  }
  for (std::size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got[r], pins[r]) << (r == 0 ? "plain tracking" : "ramp " + std::to_string(r - 1));
  }
  for (std::size_t r = 0; r < ramps.size(); ++r) {
    EXPECT_EQ(got_in_place[r], pins[r + 1]) << "track in place, ramp " << r;
    EXPECT_EQ(got_short[r], pins[r + 1]) << "track with zero fill, ramp " << r;
  }
}

}  // namespace
}  // namespace bhss::sync
