// Unit tests for the §4.2 control logic: jammer estimation and filter
// selection across the jammer/signal bandwidth grid.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "channel/awgn.hpp"
#include "core/control_logic.hpp"
#include "core/transmitter.hpp"
#include "dsp/utils.hpp"
#include "jammer/noise_jammer.hpp"
#include "phy/frame.hpp"

namespace bhss::core {
namespace {

/// A received-slice builder: clean BHSS waveform at one bandwidth level,
/// plus optional jammer and noise at configurable powers.
dsp::cvec make_slice(const BandwidthSet& bands, std::size_t level, double snr_db,
                     double jnr_db, double jam_bw, std::uint64_t seed) {
  SystemConfig sys;
  sys.pattern = HopPattern::fixed(bands, level);
  sys.hopping = false;
  const BhssTransmitter tx(sys);
  const std::vector<std::uint8_t> payload(16, 0x5A);
  dsp::cvec wave = tx.transmit(payload, seed).samples;
  dsp::scale_to_power(dsp::cspan_mut{wave}, dsp::db_to_linear(snr_db));
  if (jnr_db > -100.0) {
    jammer::NoiseJammer jam(jam_bw, seed + 1);
    const dsp::cvec j = jam.generate(wave.size());
    const auto g = static_cast<float>(std::sqrt(dsp::db_to_linear(jnr_db)));
    for (std::size_t i = 0; i < wave.size(); ++i) wave[i] += g * j[i];
  }
  channel::AwgnSource noise(seed + 2);
  noise.add_to(dsp::cspan_mut{wave}, 1.0);
  return wave;
}

class CleanSignalSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CleanSignalSweep, NoJammerMeansNoFilter) {
  const BandwidthSet bands = BandwidthSet::paper();
  const ControlLogic logic({}, bands);
  const dsp::cvec slice = make_slice(bands, GetParam(), 15.0, -300.0, 1.0, 10);
  const FilterDecision d = logic.decide(slice, GetParam());
  EXPECT_EQ(d.kind, FilterDecision::Kind::none) << "level " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Levels, CleanSignalSweep, ::testing::Range<std::size_t>(0, 7));

TEST(ControlLogic, NarrowbandJammerTriggersExcision) {
  const BandwidthSet bands = BandwidthSet::paper();
  const ControlLogic logic({}, bands);
  // Signal at 10 MHz (level 0, frac 0.5); jammer at 1/32 of Rs — well
  // inside the signal band.
  const dsp::cvec slice = make_slice(bands, 0, 15.0, 25.0, 1.0 / 32.0, 20);
  const FilterDecision d = logic.decide(slice, 0);
  EXPECT_EQ(d.kind, FilterDecision::Kind::excision);
  ASSERT_NE(d.plan, nullptr);
  EXPECT_GT(d.inband_peak_over_median_db, 7.0);
}

TEST(ControlLogic, WidebandJammerTriggersLowpass) {
  const BandwidthSet bands = BandwidthSet::paper();
  const ControlLogic logic({}, bands);
  // Signal at 2.5 MHz (level 2, frac 1/8); jammer at half the sampling
  // rate — four times wider.
  const dsp::cvec slice = make_slice(bands, 2, 15.0, 25.0, 0.5, 30);
  const FilterDecision d = logic.decide(slice, 2);
  EXPECT_EQ(d.kind, FilterDecision::Kind::lowpass);
  ASSERT_NE(d.plan, nullptr);
  EXPECT_FALSE(d.plan->taps.empty());
}

TEST(ControlLogic, MatchedJammerMeansNoFilter) {
  // Eq. (10): when Bj ~ Bp no filter can help; the logic must not excise.
  const BandwidthSet bands = BandwidthSet::paper();
  const ControlLogic logic({}, bands);
  const dsp::cvec slice = make_slice(bands, 2, 15.0, 25.0, bands.bandwidth_frac(2), 40);
  const FilterDecision d = logic.decide(slice, 2);
  EXPECT_NE(d.kind, FilterDecision::Kind::excision);
}

TEST(ControlLogic, WeakJammerLeftToDespreadingGain) {
  // §4.2: "the power of the jammer is in the same order of magnitude as
  // the signal: pre-filtering is not needed".
  const BandwidthSet bands = BandwidthSet::paper();
  const ControlLogic logic({}, bands);
  const dsp::cvec slice = make_slice(bands, 0, 20.0, 2.0, 1.0 / 32.0, 50);
  const FilterDecision d = logic.decide(slice, 0);
  EXPECT_EQ(d.kind, FilterDecision::Kind::none);
}

TEST(ControlLogic, ForcedPathsAlwaysProduceTaps) {
  const BandwidthSet bands = BandwidthSet::paper();
  const ControlLogic logic({}, bands);
  const dsp::cvec slice = make_slice(bands, 1, 10.0, -300.0, 1.0, 60);
  const FilterDecision lp = logic.force_lowpass(1);
  EXPECT_EQ(lp.kind, FilterDecision::Kind::lowpass);
  ASSERT_NE(lp.plan, nullptr);
  EXPECT_FALSE(lp.plan->taps.empty());
  const FilterDecision ex = logic.force_excision(slice, 1);
  EXPECT_EQ(ex.kind, FilterDecision::Kind::excision);
  ASSERT_NE(ex.plan, nullptr);
  EXPECT_EQ(ex.plan->taps.size(), kPsdFft);
}

TEST(ControlLogic, LowpassBankCutoffTracksBandwidth) {
  const BandwidthSet bands = BandwidthSet::paper();
  const ControlLogic logic({}, bands);
  for (std::size_t i = 0; i < bands.size(); ++i) {
    EXPECT_NEAR(logic.lpf_cutoff_frac(i), kLpfCutoffFactor * bands.bandwidth_frac(i), 1e-12);
  }
}

TEST(ControlLogic, EstimatorAblationStillDetects) {
  // Bartlett and single-periodogram estimators must reach the same
  // decision on a strong narrow-band jammer (they are noisier, not blind).
  const BandwidthSet bands = BandwidthSet::paper();
  for (PsdMethod method : {PsdMethod::welch, PsdMethod::bartlett, PsdMethod::periodogram}) {
    ControlLogicConfig cfg;
    cfg.psd_method = method;
    const ControlLogic logic(cfg, bands);
    const dsp::cvec slice = make_slice(bands, 0, 15.0, 30.0, 1.0 / 64.0, 70);
    const FilterDecision d = logic.decide(slice, 0);
    EXPECT_EQ(d.kind, FilterDecision::Kind::excision)
        << "method " << static_cast<int>(method);
  }
}

/// A BHSS waveform at one level of at least eight design-size segments at
/// 15 dB SNR, with a 25 dB tone inside the signal band.
dsp::cvec tone_jammed_wave(const BandwidthSet& bands, std::size_t level) {
  SystemConfig sys;
  sys.pattern = HopPattern::fixed(bands, level);
  sys.hopping = false;
  const std::size_t symbol_len = 32 * bands.sps(level);
  const std::vector<std::uint8_t> payload(
      std::min(phy::FrameSpec::max_payload, 8 + 32768 / (2 * symbol_len)), 0x5A);
  dsp::cvec wave = BhssTransmitter(sys).transmit(payload, 90 + level).samples;
  dsp::scale_to_power(dsp::cspan_mut{wave}, dsp::db_to_linear(15.0));
  const double f_tone = 0.2 * bands.bandwidth_frac(level);
  const auto g = static_cast<float>(std::sqrt(dsp::db_to_linear(25.0)));
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const double ph = 2.0 * 3.141592653589793 * f_tone * static_cast<double>(i);
    wave[i] += dsp::cf{g * static_cast<float>(std::cos(ph)), g * static_cast<float>(std::sin(ph))};
  }
  channel::AwgnSource noise(190 + level);
  noise.add_to(dsp::cspan_mut{wave}, 1.0);
  return wave;
}

/// FNV-1a 64 over the float words of a tap set, least significant byte first.
std::uint64_t fnv1a(const dsp::cvec& taps) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const dsp::cf& t : taps) {
    for (const float f : {t.real(), t.imag()}) {
      std::uint32_t w = 0;
      std::memcpy(&w, &f, sizeof w);
      for (int b = 0; b < 4; ++b) {
        h ^= (w >> (8 * b)) & 0xFFU;
        h *= 0x100000001B3ULL;
      }
    }
  }
  return h;
}

// decide() hands its detection PSD to the excision design when the two
// FFT sizes agree, as they do on a slice of eight design-size segments,
// and estimates the design PSD itself when they differ, as on a slice of
// two. Either way the taps must be force_excision's on the same slice.
TEST(ControlLogic, ExcisionFromDecideIsForceExcisionBitForBit) {
  const BandwidthSet bands = BandwidthSet::paper();
  ControlLogicConfig cfg;
  cfg.design_cache_capacity = 0;
  const ControlLogic logic(cfg, bands);
  std::size_t short_excisions = 0;
  for (std::size_t level = 0; level < bands.size(); ++level) {
    const dsp::cvec wave = tone_jammed_wave(bands, level);
    const std::size_t design_fft = logic.force_excision(wave, level).plan->taps.size();
    ASSERT_GE(wave.size(), 8 * design_fft) << "level " << level;
    for (const std::size_t segments : {std::size_t{8}, std::size_t{2}}) {
      const dsp::cspan slice = dsp::cspan{wave}.first(segments * design_fft);
      const FilterDecision d = logic.decide(slice, level);
      if (d.kind != FilterDecision::Kind::excision) {
        ASSERT_NE(segments, 8U) << "level " << level << ": the long slice must pick excision";
        continue;
      }
      if (segments == 2) ++short_excisions;
      const FilterDecision forced = logic.force_excision(slice, level);
      ASSERT_NE(d.plan, nullptr);
      ASSERT_NE(forced.plan, nullptr);
      ASSERT_EQ(d.plan->taps.size(), forced.plan->taps.size())
          << "level " << level << ", " << segments << " segments";
      EXPECT_EQ(std::memcmp(d.plan->taps.data(), forced.plan->taps.data(),
                            d.plan->taps.size() * sizeof(dsp::cf)),
                0)
          << "level " << level << ", " << segments << " segments";
    }
  }
  // The short slices must reach the path where the sizes differ.
  EXPECT_GT(short_excisions, 0U);
}

// The exact taps of the eq. (3) template-notch design at every paper
// level, so a change to the Welch estimate, the MSK template, the notch
// mask or the inverse DFT fails in every build.
TEST(ControlLogic, ExcisionTapsArePinned) {
  const BandwidthSet bands = BandwidthSet::paper();
  const ControlLogic logic({}, bands);
  const std::vector<std::uint64_t> pins = {
      0xE2096AFAAE7E0D7EULL, 0x9A23C84F3D7D1306ULL, 0x175C66C8D58193D1ULL,
      0x07A9197F2C4D89D0ULL, 0xDB08BF081682AF41ULL, 0x2B00DD84BCDA42C4ULL,
      0x2717B302AEFE9DD5ULL,
  };
  ASSERT_EQ(pins.size(), bands.size());
  for (std::size_t level = 0; level < bands.size(); ++level) {
    const FilterDecision d = logic.force_excision(tone_jammed_wave(bands, level), level);
    ASSERT_EQ(d.kind, FilterDecision::Kind::excision) << "level " << level;
    EXPECT_EQ(fnv1a(d.plan->taps), pins[level]) << "level " << level;
  }
}

// The template memo is process-wide: threads that ask for a table first,
// at once, must all get the one table, with the values the design used to
// compute per bin. The ControlLogic constructors race for the paper
// levels' tables the same way. Run under TSan.
TEST(ExcisionTemplate, ConcurrentFirstUseSharesOneTable) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kBins = 2048;
  constexpr double kSps = 5.0;  // no paper level's samples per chip
  const BandwidthSet bands = BandwidthSet::paper();
  std::atomic<bool> go{false};
  std::array<std::shared_ptr<const dsp::fvec>, kThreads> tables;
  std::array<std::uint64_t, kThreads> taps{};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      tables[t] = excision_template(kBins, kSps);
      const ControlLogic logic({}, bands);
      taps[t] = fnv1a(logic.force_excision(tone_jammed_wave(bands, 0), 0).plan->taps);
    });
  }
  go.store(true);
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(tables[t], tables[0]) << "thread " << t;
    EXPECT_EQ(taps[t], 0xE2096AFAAE7E0D7EULL) << "thread " << t;  // ExcisionTapsArePinned, level 0
  }
  ASSERT_EQ(tables[0]->size(), kBins);
  for (std::size_t k = 0; k < kBins; ++k) {
    const double f = k < kBins / 2 ? static_cast<double>(k) / kBins
                                   : static_cast<double>(k) / kBins - 1.0;
    EXPECT_EQ((*tables[0])[k], static_cast<float>(std::max(msk_psd_shape(f, kSps), 1e-3)))
        << "bin " << k;
  }
}

TEST(ControlLogic, DegeneratePsdFallsBackToNoFilterInsteadOfThrowing) {
  // An all-zero hop slice (deep fade, scrubbed burst, muted front end) has
  // a degenerate PSD: eq. (3)'s 1/sqrt(P) whitening taps would be Inf.
  // The validated decision path must fall back to Kind::none and flag the
  // fallback rather than synthesise non-finite taps or throw out of the
  // receiver's per-hop loop.
  const BandwidthSet bands = BandwidthSet::paper();
  const ControlLogic logic({}, bands);
  const dsp::cvec silence(8192, dsp::cf{0.0F, 0.0F});

  const FilterDecision adaptive = logic.decide(silence, 0);
  EXPECT_EQ(adaptive.kind, FilterDecision::Kind::none);
  EXPECT_TRUE(adaptive.degenerate_psd);
  EXPECT_EQ(adaptive.plan, nullptr);

  const FilterDecision forced = logic.force_excision(silence, 0);
  EXPECT_EQ(forced.kind, FilterDecision::Kind::none);
  EXPECT_TRUE(forced.degenerate_psd);

  // A healthy slice keeps the flag clear.
  const dsp::cvec slice = make_slice(bands, 0, 15.0, -300.0, 1.0, 21);
  EXPECT_FALSE(logic.decide(slice, 0).degenerate_psd);
}

TEST(MskPsdShape, UnitAtDcAndDecaying) {
  EXPECT_NEAR(msk_psd_shape(0.0, 8.0), 1.0, 1e-12);
  // Monotone decreasing over the main lobe.
  double prev = 1.0;
  for (double f = 0.0; f < 0.7 / 8.0; f += 0.01 / 8.0) {
    const double v = msk_psd_shape(f, 8.0);
    EXPECT_LE(v, prev + 1e-9);
    prev = v;
  }
  // Null at f = 0.75 / (2 sps)... the half-sine null: u = f*sps = 0.75.
  EXPECT_NEAR(msk_psd_shape(0.75 / 8.0, 8.0), 0.0, 1e-6);
  // Continuous through the |u| = 1/4 removable singularity.
  const double eps = 1e-6;
  EXPECT_NEAR(msk_psd_shape(0.25 / 8.0 - eps, 8.0), msk_psd_shape(0.25 / 8.0 + eps, 8.0),
              1e-3);
}

}  // namespace
}  // namespace bhss::core
