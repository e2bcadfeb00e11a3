// Unit + integration tests for the CW tone and swept-carrier jammers —
// the interferers the excision-filter literature ([3]-[7] in the paper)
// was built against.

#include <gtest/gtest.h>

#include <cmath>

#include "baseline/dsss_baseline.hpp"
#include "core/link_simulator.hpp"
#include "dsp/psd.hpp"
#include "dsp/utils.hpp"
#include "jammer/tone_jammer.hpp"

namespace bhss::jammer {
namespace {

TEST(ToneJammer, UnitPowerAndSpectralLine) {
  ToneJammer jam(0.11, 3);
  const dsp::cvec x = jam.generate(1 << 14);
  EXPECT_NEAR(dsp::mean_power(x), 1.0, 1e-3);

  const dsp::fvec psd = dsp::welch_psd(x, 256);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < psd.size(); ++k) {
    if (psd[k] > psd[peak]) peak = k;
  }
  EXPECT_NEAR(static_cast<double>(peak) / 256.0, 0.11, 1.5 / 256.0);
  // Essentially all power in the line's neighbourhood.
  double near = 0.0;
  for (std::size_t k = peak - 2; k <= peak + 2; ++k) near += psd[k];
  EXPECT_GT(near / dsp::psd_total_power(psd), 0.98);
}

TEST(ToneJammer, PhaseContinuousAcrossCalls) {
  ToneJammer a(0.07, 9);
  ToneJammer b(0.07, 9);
  const dsp::cvec whole = a.generate(256);
  dsp::cvec split = b.generate(100);
  const dsp::cvec tail = b.generate(156);
  split.insert(split.end(), tail.begin(), tail.end());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_NEAR(std::abs(whole[i] - split[i]), 0.0F, 1e-4F) << "i=" << i;
  }
}

TEST(ToneJammer, RejectsBadFrequencies) {
  EXPECT_THROW(ToneJammer(0.5), std::invalid_argument);
  EXPECT_THROW(ToneJammer(-0.6), std::invalid_argument);
}

TEST(SweptJammer, CoversTheSweptBandOverAFullSweep) {
  SweptJammer jam(-0.2, 0.2, 1 << 14, 5);
  const dsp::cvec x = jam.generate(1 << 14);
  EXPECT_NEAR(dsp::mean_power(x), 1.0, 1e-3);
  const dsp::fvec psd = dsp::welch_psd(x, 128);
  EXPECT_NEAR(dsp::occupied_bandwidth(psd, 0.95), 0.4, 0.1);
}

TEST(SweptJammer, InstantaneouslyNarrow) {
  // Over a window much shorter than the sweep, the jammer is a tone:
  // nearly all power concentrates around one spectral line (which sits at
  // an arbitrary offset, so the DC-centred occupied_bandwidth measure
  // does not apply).
  SweptJammer jam(-0.2, 0.2, 1 << 20, 6);
  const dsp::cvec x = jam.generate(4096);
  const dsp::fvec psd = dsp::welch_psd(x, 128);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < psd.size(); ++k) {
    if (psd[k] > psd[peak]) peak = k;
  }
  double near = 0.0;
  for (std::size_t d = 0; d < 5; ++d) near += psd[(peak + 126 + d) % 128];
  EXPECT_GT(near / dsp::psd_total_power(psd), 0.9);
}

TEST(SweptJammer, RejectsBadBand) {
  EXPECT_THROW(SweptJammer(0.2, -0.2, 100), std::invalid_argument);
  EXPECT_THROW(SweptJammer(-0.6, 0.2, 100), std::invalid_argument);
  EXPECT_THROW(SweptJammer(-0.1, 0.1, 0), std::invalid_argument);
}

TEST(ToneJammerIntegration, ExcisionDigsOutAStrongTone) {
  // A CW tone 30 dB above the noise inside the signal band: the classic
  // excision scenario. With the adaptive filter the link survives; with
  // filtering off it collapses.
  core::SimConfig cfg;
  cfg.system = baseline::dsss_config(core::BandwidthSet::paper(), 0);  // 10 MHz
  cfg.payload_len = 6;
  cfg.n_packets = 12;
  cfg.snr_db = 12.0;
  cfg.jnr_db = 30.0;
  cfg.jammer.kind = core::JammerSpec::Kind::tone;  // 0.01 cycles/sample: inside the 10 MHz band

  const core::LinkStats with = core::run_link(cfg);
  cfg.system.filter_policy = core::FilterPolicy::off;
  const core::LinkStats without = core::run_link(cfg);

  EXPECT_GE(with.ok, cfg.n_packets - 1);
  EXPECT_EQ(without.ok, 0U);
}

TEST(SweptJammerIntegration, LinkRunsEndToEnd) {
  core::SimConfig cfg;
  cfg.system.pattern =
      core::HopPattern::make(core::HopPatternType::linear, core::BandwidthSet::small());
  cfg.payload_len = 6;
  cfg.n_packets = 8;
  cfg.snr_db = 18.0;
  cfg.jnr_db = 25.0;
  cfg.jammer.kind = core::JammerSpec::Kind::swept;
  const core::LinkStats s = core::run_link(cfg);  // must not throw
  EXPECT_EQ(s.packets, cfg.n_packets);
}

}  // namespace
}  // namespace bhss::jammer
