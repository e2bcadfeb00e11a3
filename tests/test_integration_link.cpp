// Integration tests across the whole stack: transmitter -> jammer + AWGN
// channel -> receiver, exercising the paper's headline behaviours on the
// (fast) reduced bandwidth set.

#include <gtest/gtest.h>

#include "baseline/dsss_baseline.hpp"
#include "core/link_simulator.hpp"
#include "phy/frame.hpp"
#include "runtime/parallel_link_runner.hpp"

namespace bhss::core {
namespace {

/// The §6.3 searches run on a runner with no journal, at the benches'
/// default 16 shards; their PER checks use `runner.run`, whose shards are
/// the ones the bisection probed.
constexpr runtime::RunnerOptions kSearchRunner{.n_threads = 4, .n_shards = 16};

SimConfig base_config() {
  SimConfig cfg;
  cfg.system.pattern = HopPattern::make(HopPatternType::linear, BandwidthSet::small());
  cfg.system.hopping = true;
  cfg.payload_len = 8;
  cfg.n_packets = 15;
  return cfg;
}

TEST(LinkIntegration, CleanChannelDeliversEverything) {
  SimConfig cfg = base_config();
  cfg.jammer.kind = JammerSpec::Kind::none;
  cfg.snr_db = 20.0;
  const LinkStats s = run_link(cfg);
  EXPECT_EQ(s.ok, s.packets);
  EXPECT_EQ(s.detected, s.packets);
  EXPECT_EQ(s.symbol_errors, 0U);
  EXPECT_DOUBLE_EQ(s.per(), 0.0);
  EXPECT_GT(s.throughput_bps, 0.0);
}

TEST(LinkIntegration, LowSnrLosesPackets) {
  SimConfig cfg = base_config();
  cfg.jammer.kind = JammerSpec::Kind::none;
  cfg.snr_db = -25.0;
  const LinkStats s = run_link(cfg);
  EXPECT_EQ(s.ok, 0U);
  EXPECT_DOUBLE_EQ(s.per(), 1.0);
}

TEST(LinkIntegration, AdaptiveFilteringBeatsOffUnderNarrowbandJam) {
  SimConfig cfg = base_config();
  cfg.jammer.kind = JammerSpec::Kind::fixed_bandwidth;
  cfg.jammer.bandwidth_frac = 1.0 / 32.0;
  cfg.jnr_db = 28.0;
  cfg.snr_db = 12.0;
  const LinkStats adaptive = run_link(cfg);
  cfg.system.filter_policy = FilterPolicy::off;
  const LinkStats off = run_link(cfg);
  EXPECT_LT(adaptive.ser(), off.ser());
  EXPECT_GE(adaptive.ok, off.ok);
}

TEST(LinkIntegration, MinSnrSearchIsMonotoneConsistent) {
  SimConfig cfg = base_config();
  cfg.system.hopping = false;
  cfg.system.pattern = HopPattern::fixed(BandwidthSet::small(), 0);
  cfg.jammer.kind = JammerSpec::Kind::none;
  runtime::ParallelLinkRunner runner(kSearchRunner);
  const double min_snr = runner.min_snr_for_per("clean", cfg, 0.5, -10.0, 30.0);
  EXPECT_GT(min_snr, -10.0);
  EXPECT_LT(min_snr, 30.0);
  // Above the threshold the PER must satisfy the target; below, not.
  cfg.snr_db = min_snr + 1.0;
  EXPECT_LE(runner.run(cfg).per(), 0.5);
  cfg.snr_db = min_snr - 3.0;
  EXPECT_GT(runner.run(cfg).per(), 0.4);
}

TEST(LinkIntegration, ExcisionPowerAdvantageOnNarrowbandJam) {
  // The core §6.3 result on the NB side: > 10 dB advantage for a strong
  // narrow-band jammer at Bp/Bj = 8.
  SimConfig cfg;
  cfg.system = baseline::dsss_config(BandwidthSet::small(), 0);
  cfg.payload_len = 8;
  cfg.n_packets = 15;
  cfg.jammer.kind = JammerSpec::Kind::fixed_bandwidth;
  cfg.jammer.bandwidth_frac = 1.0 / 16.0;
  cfg.jnr_db = 25.0;
  SimConfig off = cfg;
  off.system.filter_policy = FilterPolicy::off;
  runtime::ParallelLinkRunner runner(kSearchRunner);
  const double off_min_snr = runner.min_snr_for_per("off", off);
  const double advantage = off_min_snr - runner.min_snr_for_per("filter", cfg);
  EXPECT_GT(advantage, 10.0);
}

TEST(LinkIntegration, MatchedJammerGivesNoAdvantage) {
  SimConfig cfg;
  cfg.system = baseline::dsss_config(BandwidthSet::small(), 0);
  cfg.payload_len = 8;
  cfg.n_packets = 15;
  cfg.jammer.kind = JammerSpec::Kind::fixed_bandwidth;
  cfg.jammer.bandwidth_frac = 0.5;  // matched to the signal
  cfg.jnr_db = 25.0;
  SimConfig off = cfg;
  off.system.filter_policy = FilterPolicy::off;
  runtime::ParallelLinkRunner runner(kSearchRunner);
  const double off_min_snr = runner.min_snr_for_per("off", off);
  const double advantage = off_min_snr - runner.min_snr_for_per("filter", cfg);
  EXPECT_NEAR(advantage, 0.0, 2.0);
}

TEST(LinkIntegration, ModerateRatioExcisionDecodes) {
  // Regression guard for the hard-notch excision: a strong narrow-band
  // jammer only four times narrower than the signal (the eq. (11) regime
  // closest to the eq. (10) bypass) must still be dug out. Plain
  // whitening-depth notches leave a chip-correlated residual here and
  // lose the frame.
  SimConfig cfg;
  cfg.system = baseline::dsss_config(BandwidthSet::paper(), 4);  // 0.625 MHz
  cfg.payload_len = 6;
  cfg.n_packets = 12;
  cfg.snr_db = 18.0;
  cfg.jnr_db = 30.0;
  cfg.jammer.kind = JammerSpec::Kind::fixed_bandwidth;
  cfg.jammer.bandwidth_frac = BandwidthSet::paper().bandwidth_frac(6);  // 0.156 MHz
  const LinkStats s = run_link(cfg);
  EXPECT_GE(s.ok, s.packets - 1);
  EXPECT_LT(s.ser(), 0.02);
}

TEST(LinkIntegration, HoppingJammerRunsEndToEnd) {
  SimConfig cfg = base_config();
  cfg.jammer.kind = JammerSpec::Kind::hopping;
  cfg.jammer.dwell_samples = 2048;
  cfg.jnr_db = 20.0;
  cfg.snr_db = 25.0;
  const LinkStats s = run_link(cfg);
  EXPECT_EQ(s.packets, cfg.n_packets);
  EXPECT_GT(s.ok, 0U);
}

TEST(LinkIntegration, HoppingDefeatsReactiveJammer) {
  // §3: a reactive jammer keeps its bandwidth matched to a non-hopping
  // transmitter (after one reaction delay) and kills the link; against a
  // transmitter that hops faster than the reaction time, many hops escape
  // with a large bandwidth offset and survive.
  SimConfig fixed = base_config();
  const HopPattern hop_pattern = fixed.system.pattern;
  fixed.system.hopping = false;
  fixed.system.pattern = HopPattern::fixed(hop_pattern.bands(), 1);
  fixed.jammer.kind = JammerSpec::Kind::reactive;
  fixed.jammer.reaction_delay = 4096;  // ~200 us at 20 MS/s
  fixed.jnr_db = 30.0;
  fixed.snr_db = 15.0;
  fixed.n_packets = 20;

  SimConfig hopping = fixed;
  hopping.system.hopping = true;
  hopping.system.pattern = hop_pattern;
  hopping.system.symbols_per_hop = 2;

  const LinkStats s_fixed = run_link(fixed);
  const LinkStats s_hopping = run_link(hopping);
  EXPECT_LT(s_hopping.ser(), s_fixed.ser());
}

TEST(LinkIntegration, GenieAndPreambleAgreeOnCleanChannel) {
  SimConfig cfg = base_config();
  cfg.jammer.kind = JammerSpec::Kind::none;
  cfg.snr_db = 20.0;
  cfg.system.sync = SyncMode::preamble;
  const LinkStats preamble = run_link(cfg);
  cfg.system.sync = SyncMode::genie;
  const LinkStats genie = run_link(cfg);
  EXPECT_EQ(preamble.ok, genie.ok);
}

TEST(LinkIntegration, ThroughputAccountsAirtime) {
  SimConfig cfg = base_config();
  cfg.jammer.kind = JammerSpec::Kind::none;
  cfg.snr_db = 20.0;
  const LinkStats s = run_link(cfg);
  // bits delivered / airtime, within the bounds set by the fastest and
  // slowest bandwidths of the set at spreading factor 8.
  EXPECT_GT(s.throughput_bps, 1e4);
  EXPECT_LT(s.throughput_bps, 2e6);
}

TEST(LinkIntegration, StatsAccounting) {
  SimConfig cfg = base_config();
  cfg.jammer.kind = JammerSpec::Kind::none;
  cfg.snr_db = 3.0;
  const LinkStats s = run_link(cfg);
  EXPECT_EQ(s.packets, cfg.n_packets);
  EXPECT_LE(s.ok, s.detected);
  EXPECT_LE(s.detected, s.packets);
  EXPECT_EQ(s.total_symbols,
            cfg.n_packets * phy::FrameSpec::total_symbols(cfg.payload_len));
  EXPECT_LE(s.symbol_errors, s.total_symbols);
}

}  // namespace
}  // namespace bhss::core
