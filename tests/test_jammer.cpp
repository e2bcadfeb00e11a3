// Unit tests for the jammer models: band occupancy, power calibration,
// hopping behaviour and the reactive jammer's delayed bandwidth matching.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <map>

#include "dsp/psd.hpp"
#include "dsp/utils.hpp"
#include "jammer/duty_cycle_jammer.hpp"
#include "jammer/hopping_jammer.hpp"
#include "jammer/noise_jammer.hpp"
#include "jammer/reactive_jammer.hpp"

namespace bhss::jammer {
namespace {

class NoiseJammerSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoiseJammerSweep, UnitPowerAndCorrectBandwidth) {
  const double bw = GetParam();
  NoiseJammer jam(bw, 1);
  const dsp::cvec x = jam.generate(1 << 16);
  EXPECT_NEAR(dsp::mean_power(x), 1.0, 0.02);

  const dsp::fvec psd = dsp::welch_psd(x, 512);
  const double occupied = dsp::occupied_bandwidth(psd, 0.99);
  EXPECT_NEAR(occupied, bw, bw * 0.25 + 0.02) << "bw " << bw;
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, NoiseJammerSweep,
                         ::testing::Values(1.0 / 128, 1.0 / 32, 1.0 / 8, 0.25, 0.5, 1.0));

TEST(NoiseJammer, OutOfBandSuppressed) {
  NoiseJammer jam(0.125, 2);
  const dsp::cvec x = jam.generate(1 << 16);
  const dsp::fvec psd = dsp::welch_psd(x, 256);
  // Compare in-band level (around DC) to far out-of-band level.
  double in = 0.0;
  double out = 0.0;
  for (std::size_t k = 0; k < 8; ++k) in += psd[k] + psd[255 - k];
  for (std::size_t k = 64; k < 96; ++k) out += psd[k] + psd[255 - k];
  EXPECT_GT(in / out, 1000.0);  // > 30 dB shoulder
}

TEST(NoiseJammer, FullBandIsWhite) {
  NoiseJammer jam(1.0, 3);
  const dsp::cvec x = jam.generate(1 << 15);
  const dsp::fvec psd = dsp::welch_psd(x, 64);
  const double mean_bin = dsp::psd_total_power(psd) / 64.0;
  for (float p : psd) EXPECT_NEAR(p / mean_bin, 1.0, 0.4);
}

/// FNV-1a 64 over the float words, least significant byte first.
std::uint64_t fnv1a(const dsp::cvec& x) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < 2 * x.size(); ++i) {
    std::uint32_t w = 0;
    std::memcpy(&w, reinterpret_cast<const float*>(x.data()) + i, sizeof(w));
    for (int b = 0; b < 4; ++b) {
      h ^= (w >> (8 * b)) & 0xFFU;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

TEST(NoiseJammer, StreamIsPinned) {
  // The exact output bits, by digest, of three successive calls on one
  // instance: the second spans two overlap-save blocks of the 2049-tap
  // shaper, the third is a single sample. Band-occupancy and power tests
  // pass a shaper change that moves the last bit of the noise; this one
  // does not, in any build, scalar or vector. The reactive and hopping
  // jammers write their segments from these sources.
  struct Pin {
    double bw;
    std::array<std::uint64_t, 3> digests;
  };
  const std::array<Pin, 3> pins = {{
      {1.0 / 128, {0x8FBFF78D1C3D1D8FULL, 0x8FC302DDA42C9F08ULL, 0x9D96196D78172D10ULL}},
      {0.35, {0xB21E7E79C7D5D8E2ULL, 0x754C96EF0C28678BULL, 0xB5EE28AF29D3AC91ULL}},
      {1.0, {0x5555E1CA25AA2B38ULL, 0x9EED89DB5A7CC0B9ULL, 0x6D9A40D6F7E4CA43ULL}},
  }};
  const std::array<std::size_t, 3> lengths = {3000, 20000, 1};
  for (const Pin& pin : pins) {
    NoiseJammer jam(pin.bw, 0x5EED);
    for (std::size_t call = 0; call < lengths.size(); ++call) {
      const dsp::cvec x = jam.generate(lengths[call]);
      ASSERT_EQ(x.size(), lengths[call]);
      EXPECT_EQ(fnv1a(x), pin.digests[call]) << "bw " << pin.bw << " call " << call;
    }
  }
  // One reactive call that switches from the widest band to the narrowest
  // 1024 samples after the hop at 4096, each segment drawn from its band's
  // own source.
  ReactiveJammer reactive({1.0, 0.35, 1.0 / 128}, 1024, 0x5EED);
  const std::vector<ObservedHop> hops = {{0, 1.0}, {4096, 1.0 / 128}};
  const dsp::cvec x = reactive.generate(hops, 12000);
  ASSERT_EQ(x.size(), 12000U);
  EXPECT_EQ(fnv1a(x), 0x248151CF85DD786EULL);
  // One hopping call whose length is not a multiple of the dwell: four
  // full dwells (two of them back to back on the full band) and a
  // 500-sample remainder, each normalised over its own samples.
  HoppingJammer hopping({1.0, 0.35, 1.0 / 128}, {0.4, 0.3, 0.3}, 1000, 0x5EED);
  const dsp::cvec h = hopping.generate(4500);
  ASSERT_EQ(h.size(), 4500U);
  EXPECT_EQ(hopping.last_hop_bandwidths(), (std::vector<double>{1.0 / 128, 1.0, 1.0, 0.35, 0.35}));
  EXPECT_EQ(fnv1a(h), 0x37E4A1CC1B6C267BULL);
}

TEST(NoiseJammer, BlockEdgesArePinned) {
  // The 2049-tap shaper runs 14336-sample overlap-save blocks over n + 2049
  // white samples, so n = 12287, 12288 and 12289 put the end of the input
  // at, one past and two past the first block's end; 40000 spans three
  // blocks. Successive calls on one instance, so each digest also pins
  // that the call before drew exactly n + 2049 noise samples.
  struct Pin {
    double bw;
    std::array<std::uint64_t, 4> digests;
  };
  const std::array<Pin, 2> pins = {{
      {1.0 / 128,
       {0x9F639CED26932BF5ULL, 0xF87F79752C3EDBA1ULL, 0x72AF52E09A82F1D8ULL,
        0xF9B9634109563255ULL}},
      {0.35,
       {0x6867CE7C23CD3FA2ULL, 0xEFD1A15B55A62214ULL, 0x34C6DDDC5D56F7FFULL,
        0x49F78C52C2E8AA9EULL}},
  }};
  const std::array<std::size_t, 4> lengths = {12287, 12288, 12289, 40000};
  for (const Pin& pin : pins) {
    NoiseJammer jam(pin.bw, 0xB10C);
    for (std::size_t call = 0; call < lengths.size(); ++call) {
      const dsp::cvec x = jam.generate(lengths[call]);
      ASSERT_EQ(x.size(), lengths[call]);
      EXPECT_EQ(fnv1a(x), pin.digests[call]) << "bw " << pin.bw << " n " << lengths[call];
    }
  }
}

TEST(DutyCycleJammer, GatingIsPinned) {
  // Period 1000, 300 samples on. The second call starts at 650, in the
  // gap, and ends at 120, inside a burst; the third call's digest pins
  // the phase the second left behind.
  DutyCycleJammer jam(0.35, 1000, 0.3, 0xD07);
  (void)jam.generate(650);
  const dsp::cvec x = jam.generate(2470);
  ASSERT_EQ(x.size(), 2470U);
  EXPECT_EQ(fnv1a(x), 0x18ED056B2D114190ULL);
  const dsp::cvec next = jam.generate(500);
  EXPECT_EQ(fnv1a(next), 0x03F521CC8C4CB7C6ULL);
  EXPECT_NE(next[179], dsp::cf{});
  EXPECT_EQ(next[180], dsp::cf{});
}

TEST(NoiseJammer, RejectsBadBandwidth) {
  EXPECT_THROW(NoiseJammer(0.0, 1), std::invalid_argument);
  EXPECT_THROW(NoiseJammer(1.5, 1), std::invalid_argument);
}

TEST(HoppingJammer, DistributionFollowsProbabilities) {
  const std::vector<double> bws = {0.5, 0.25, 0.125};
  const std::vector<double> probs = {0.6, 0.3, 0.1};
  HoppingJammer jam(bws, probs, 256, 4);
  (void)jam.generate(256 * 4000);
  std::map<double, std::size_t> counts;
  for (double b : jam.last_hop_bandwidths()) ++counts[b];
  const auto total = static_cast<double>(jam.last_hop_bandwidths().size());
  EXPECT_NEAR(counts[0.5] / total, 0.6, 0.05);
  EXPECT_NEAR(counts[0.25] / total, 0.3, 0.05);
  EXPECT_NEAR(counts[0.125] / total, 0.1, 0.03);
}

TEST(HoppingJammer, UnitPower) {
  HoppingJammer jam({0.5, 0.03125}, {0.5, 0.5}, 1024, 5);
  const dsp::cvec x = jam.generate(1 << 16);
  EXPECT_NEAR(dsp::mean_power(x), 1.0, 0.05);
}

TEST(HoppingJammer, HopCountMatchesDwell) {
  HoppingJammer jam({0.5, 0.25}, {0.5, 0.5}, 1000, 6);
  (void)jam.generate(10000);
  EXPECT_EQ(jam.last_hop_bandwidths().size(), 10U);
}

TEST(HoppingJammer, RejectsBadConfig) {
  EXPECT_THROW(HoppingJammer({}, {}, 100, 1), std::invalid_argument);
  EXPECT_THROW(HoppingJammer({0.5}, {0.5, 0.5}, 100, 1), std::invalid_argument);
  EXPECT_THROW(HoppingJammer({0.5}, {1.0}, 0, 1), std::invalid_argument);
}

TEST(ReactiveJammer, MatchesObservedBandwidthAfterDelay) {
  // TX hops to a narrow bandwidth at sample 4096; a reactive jammer with
  // tau = 1024 must stay wide until 4096+1024 and be narrow afterwards.
  ReactiveJammer jam({0.5, 1.0 / 64}, 1024, 7);
  const std::vector<ObservedHop> hops = {{0, 0.5}, {4096, 1.0 / 64}};
  const dsp::cvec x = jam.generate(hops, 16384);
  ASSERT_EQ(x.size(), 16384U);

  auto occupied = [&](std::size_t begin, std::size_t len) {
    const dsp::fvec psd = dsp::welch_psd(dsp::cspan{x}.subspan(begin, len), 256);
    return dsp::occupied_bandwidth(psd, 0.99);
  };
  EXPECT_GT(occupied(0, 4096), 0.3);              // wide before the hop
  EXPECT_GT(occupied(4200, 800), 0.3);            // still wide during tau
  EXPECT_LT(occupied(6144, 8192), 0.1);           // narrow after reacting
}

TEST(ReactiveJammer, SnapsToClosestAvailableBandwidth) {
  ReactiveJammer jam({0.5, 0.125, 1.0 / 64}, 0, 8);
  const std::vector<ObservedHop> hops = {{0, 0.1}};  // closest is 0.125
  const dsp::cvec x = jam.generate(hops, 8192);
  const dsp::fvec psd = dsp::welch_psd(x, 256);
  EXPECT_NEAR(dsp::occupied_bandwidth(psd, 0.99), 0.125, 0.06);
}

TEST(ReactiveJammer, UnitPowerAcrossSwitches) {
  ReactiveJammer jam({0.5, 1.0 / 32}, 512, 9);
  std::vector<ObservedHop> hops;
  for (std::size_t h = 0; h < 8; ++h) hops.push_back({h * 2048, (h % 2) ? 0.5 : 1.0 / 32});
  const dsp::cvec x = jam.generate(hops, 8 * 2048);
  EXPECT_NEAR(dsp::mean_power(x), 1.0, 0.05);
}

TEST(ReactiveJammer, RejectsEmptyBandwidths) {
  EXPECT_THROW(ReactiveJammer({}, 10, 1), std::invalid_argument);
}

}  // namespace
}  // namespace bhss::jammer
