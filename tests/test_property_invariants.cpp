// Property-style parameterized sweeps over the system's invariants:
// round trips across payload sizes / patterns / hop dwells, theory-model
// monotonicity, and control-logic robustness over a jammer grid.

#include <gtest/gtest.h>

#include <tuple>

#include "channel/link_channel.hpp"
#include "core/link_simulator.hpp"
#include "core/theory.hpp"
#include "phy/frame.hpp"
#include "dsp/utils.hpp"

namespace bhss::core {
namespace {

// ---------------------------------------------------------- round trips

using RoundTripParam = std::tuple<HopPatternType, std::size_t /*payload*/,
                                  std::size_t /*symbols_per_hop*/>;

class RoundTripSweep : public ::testing::TestWithParam<RoundTripParam> {};

TEST_P(RoundTripSweep, CleanChannelRoundTrip) {
  const auto [pattern, payload_len, sph] = GetParam();
  SimConfig cfg;
  cfg.system.pattern = HopPattern::make(pattern, BandwidthSet::small());
  cfg.system.symbols_per_hop = sph;
  cfg.payload_len = payload_len;
  cfg.n_packets = 4;
  cfg.snr_db = 20.0;
  cfg.jammer.kind = JammerSpec::Kind::none;
  const LinkStats s = run_link(cfg);
  EXPECT_EQ(s.ok, s.packets);
  EXPECT_EQ(s.symbol_errors, 0U);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RoundTripSweep,
    ::testing::Combine(::testing::Values(HopPatternType::linear, HopPatternType::exponential,
                                         HopPatternType::parabolic),
                       ::testing::Values(1, 8, 32),
                       ::testing::Values(1, 4, 10)),
    [](const ::testing::TestParamInfo<RoundTripParam>& info) {
      return to_string(std::get<0>(info.param)) + "_p" +
             std::to_string(std::get<1>(info.param)) + "_h" +
             std::to_string(std::get<2>(info.param));
    });

// ------------------------------------------------------ theory invariants

class GammaGridSweep
    : public ::testing::TestWithParam<std::tuple<double /*rho dB*/, double /*ratio*/>> {};

TEST_P(GammaGridSweep, BoundIsAtLeastOneAndBoundedByJammerPlusNoise) {
  const auto [rho_db, ratio] = GetParam();
  const double rho = dsp::db_to_linear(rho_db);
  const double gamma = theory::snr_improvement_bound(ratio, rho, 0.01);
  EXPECT_GE(gamma, 1.0);
  // Removing the jammer entirely is the best any filter can do.
  EXPECT_LE(gamma, (rho + 0.01) / 0.01 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, GammaGridSweep,
                         ::testing::Combine(::testing::Values(0.0, 10.0, 20.0, 30.0),
                                            ::testing::Values(0.01, 0.1, 0.5, 1.0, 2.0, 10.0,
                                                              100.0)));

TEST(TheoryInvariants, BerMonotoneInEbno) {
  const auto model = theory::BhssModel::log_uniform(100.0, 7, 100.0, 100.0);
  for (double bj : {1.0, 0.1, 0.01}) {
    double prev = 1.0;
    for (double ebno_db = -5.0; ebno_db <= 25.0; ebno_db += 1.0) {
      const double ber = model.ber_fixed_jammer(bj, dsp::db_to_linear(ebno_db));
      EXPECT_LE(ber, prev + 1e-12) << "bj " << bj << " Eb/N0 " << ebno_db;
      prev = ber;
    }
  }
}

TEST(TheoryInvariants, ThroughputMonotoneInEbno) {
  const auto model = theory::BhssModel::log_uniform(100.0, 7, 100.0, 100.0);
  double prev = 0.0;
  for (double ebno_db = -5.0; ebno_db <= 30.0; ebno_db += 1.0) {
    const double t = model.throughput_random_jammer(dsp::db_to_linear(ebno_db), 4000);
    EXPECT_GE(t, prev - 1e-12);
    prev = t;
  }
}

TEST(TheoryInvariants, StrongerJammerNeverHelps) {
  const auto model = theory::BhssModel::log_uniform(100.0, 7, 100.0, 100.0);
  const double ebno = dsp::db_to_linear(12.0);
  const auto weaker = theory::BhssModel::log_uniform(100.0, 7, 100.0, 10.0);
  for (double bj : {1.0, 0.1, 0.01}) {
    EXPECT_LE(weaker.ber_fixed_jammer(bj, ebno), model.ber_fixed_jammer(bj, ebno) + 1e-12);
  }
}

// -------------------------------------------------- receiver never crashes

using RobustnessParam = std::tuple<std::size_t /*level*/, double /*jam bw*/, double /*jnr*/>;

class ReceiverRobustness : public ::testing::TestWithParam<RobustnessParam> {};

TEST_P(ReceiverRobustness, DecodesOrFailsCleanlyAcrossJammerGrid) {
  const auto [level, jam_bw, jnr] = GetParam();
  SimConfig cfg;
  cfg.system.pattern = HopPattern::fixed(BandwidthSet::small(), level);
  cfg.system.hopping = false;
  cfg.payload_len = 4;
  cfg.n_packets = 3;
  cfg.snr_db = 12.0;
  cfg.jnr_db = jnr;
  cfg.jammer.kind = JammerSpec::Kind::fixed_bandwidth;
  cfg.jammer.bandwidth_frac = jam_bw;
  const LinkStats s = run_link(cfg);  // must not throw
  EXPECT_EQ(s.packets, cfg.n_packets);
  EXPECT_LE(s.ok, s.packets);
}

INSTANTIATE_TEST_SUITE_P(Grid, ReceiverRobustness,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1.0 / 64, 1.0 / 8, 0.5, 1.0),
                                            ::testing::Values(0.0, 20.0, 40.0)));

// --------------------------------------------------------- schedule fuzz

class ScheduleFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleFuzz, AnySeedYieldsConsistentTransmissions) {
  SystemConfig sys;
  sys.seed = GetParam();
  sys.pattern = HopPattern::make(HopPatternType::parabolic, BandwidthSet::paper());
  const BhssTransmitter tx(sys);
  const std::vector<std::uint8_t> payload(5, 0x42);
  const Transmission t = tx.transmit(payload, GetParam() * 13);
  EXPECT_EQ(t.samples.size(), t.schedule.total_samples);
  EXPECT_EQ(t.schedule.total_symbols, phy::FrameSpec::total_symbols(5));
  // Mean power within a few percent of 1 regardless of schedule.
  EXPECT_NEAR(dsp::mean_power(t.samples), 1.0, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleFuzz,
                         ::testing::Values(0, 1, 2, 3, 17, 255, 65535, 0xDEADBEEF,
                                           0xFFFFFFFFFFFFFFFFULL));

}  // namespace
}  // namespace bhss::core
