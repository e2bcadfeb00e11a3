// Unit tests for the BHSS transmitter and receiver pair: waveform
// bookkeeping, per-hop constant power, and frame round trips across sync
// modes, patterns and impairments.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <numbers>

#include "channel/link_channel.hpp"
#include "core/contracts.hpp"
#include "core/receiver.hpp"
#include "core/transmitter.hpp"
#include "dsp/fir.hpp"
#include "phy/frame.hpp"
#include "dsp/utils.hpp"

namespace bhss::core {
namespace {

std::vector<std::uint8_t> test_payload(std::size_t n) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(i * 29 + 3);
  return p;
}

SystemConfig hopping_config(HopPatternType type = HopPatternType::linear) {
  SystemConfig cfg;
  cfg.pattern = HopPattern::make(type, BandwidthSet::paper());
  return cfg;
}

TEST(Transmitter, WaveformLengthMatchesSchedule) {
  const BhssTransmitter tx(hopping_config());
  const Transmission t = tx.transmit(test_payload(8), 1);
  EXPECT_EQ(t.samples.size(), t.schedule.total_samples);
  EXPECT_EQ(t.symbols.size(), phy::FrameSpec::total_symbols(8));
  EXPECT_EQ(t.schedule.total_symbols, t.symbols.size());
}

TEST(Transmitter, ConstantPowerPerHop) {
  // §2: fixed power budget — every hop transmits at the same mean power
  // regardless of its bandwidth.
  const BhssTransmitter tx(hopping_config(HopPatternType::parabolic));
  const Transmission t = tx.transmit(test_payload(16), 2);
  for (const HopSegment& seg : t.schedule.segments) {
    const double p = dsp::mean_power(
        dsp::cspan{t.samples}.subspan(seg.start_sample, seg.n_samples));
    EXPECT_NEAR(p, 1.0, 1e-3) << "segment at " << seg.start_sample;
  }
}

TEST(Transmitter, DeterministicPerFrameCounter) {
  const BhssTransmitter tx(hopping_config());
  const Transmission a = tx.transmit(test_payload(8), 5);
  const Transmission b = tx.transmit(test_payload(8), 5);
  EXPECT_EQ(a.samples, b.samples);
  const Transmission c = tx.transmit(test_payload(8), 6);
  EXPECT_NE(a.samples, c.samples);
}

TEST(Transmitter, ChipStreamUnpredictableAcrossFrames) {
  // Same payload, different frame counters: the waveforms must differ even
  // where the schedules coincide (PN scrambling, §3).
  SystemConfig cfg = hopping_config();
  cfg.hopping = false;  // fix the schedule so only the scrambler differs
  cfg.pattern = HopPattern::fixed(cfg.pattern.bands(), 0);
  const BhssTransmitter tx(cfg);
  const Transmission a = tx.transmit(test_payload(8), 1);
  const Transmission b = tx.transmit(test_payload(8), 2);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    if (std::abs(a.samples[i] - b.samples[i]) < 1e-6F) ++same;
  }
  EXPECT_LT(same, a.samples.size() / 2);
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

TEST(BhssTransmitter, FrameIsPinned) {
  // The exact bits, by digest, of transmitted frames on the paper's
  // bandwidth set: the three Table 1 patterns at one, four and 1024
  // symbols per hop (one hop per symbol, the link's default, and one hop
  // per frame, at levels 6, 3 and 5), one frame under a hop override, and
  // the preamble reference the receiver correlates against. Power and
  // round-trip tests pass a modulator change that moves the last bit of a
  // sample; this one does not, in any build, scalar or vector.
  const auto payload = test_payload(8);
  const std::array<HopPatternType, 3> types = {
      HopPatternType::linear, HopPatternType::exponential, HopPatternType::parabolic};
  const std::array<std::size_t, 3> dwells = {1, 4, 1024};
  const std::array<std::array<std::uint64_t, 3>, 3> pins = {{
      {0x943849557C49B5A5ULL, 0xEF579CA943151225ULL, 0xE24FB1A82CB80B25ULL},
      {0xEF68E044F4C375A5ULL, 0x8C95EBA3ED973C25ULL, 0x8DB6ADA308B73425ULL},
      {0x0E5AB1A3A791CDA5ULL, 0xF2DC7A5F1FEE2725ULL, 0x48B9792DCC38FB25ULL},
  }};
  for (std::size_t p = 0; p < types.size(); ++p) {
    for (std::size_t d = 0; d < dwells.size(); ++d) {
      SystemConfig cfg = hopping_config(types[p]);
      cfg.symbols_per_hop = dwells[d];
      const Transmission t = BhssTransmitter(cfg).transmit(payload, 11 + 3 * p + d);
      ASSERT_EQ(t.samples.size(), t.schedule.total_samples);
      EXPECT_EQ(fnv1a(t.samples), pins[p][d])
          << to_string(types[p]) << " at " << dwells[d] << " symbols per hop";
    }
  }

  // An override: the exponential pattern at two symbols per hop on a
  // linear link.
  const SystemConfig cfg = hopping_config();
  const HopPattern exponential = HopPattern::make(HopPatternType::exponential,
                                                  cfg.pattern.bands());
  const Transmission over = BhssTransmitter(cfg).transmit(payload, 12, {&exponential, 2});
  EXPECT_EQ(fnv1a(over.samples), 0xD42B83FBE0521725ULL);

  // The receiver's reference: the eight preamble symbols over the first
  // hops of frame 13's schedule.
  const FramePlan plan = plan_frame(cfg, 13, phy::FrameSpec::total_symbols(payload.size()));
  const std::vector<std::uint8_t> preamble(phy::FrameSpec::preamble_symbols, 0);
  const dsp::cvec reference = BhssTransmitter::modulate_symbols(
      preamble, preamble.size(), plan.schedule, plan.scrambler_seed);
  EXPECT_EQ(fnv1a(reference), 0x5BA644008E807C25ULL);
}

TEST(FramePlan, OverrideOfAnotherBandCountIsRefusedByBothEnds) {
  // Both ends plan the frame through plan_frame, so an override pattern
  // over another band set (here 4 levels against the paper's 7) is
  // refused by the transmitter and the receiver alike.
  const SystemConfig cfg = hopping_config();
  const HopPattern other = HopPattern::make(HopPatternType::linear, BandwidthSet::small());
  ASSERT_NE(other.bands().size(), cfg.pattern.bands().size());
  const HopOverride ov{&other, 0};
  const BhssTransmitter tx(cfg);
  const BhssReceiver rx(cfg);
  const auto payload = test_payload(8);
  EXPECT_THROW((void)tx.transmit(payload, 3, ov), contract_violation);
  const Transmission t = tx.transmit(payload, 3);
  EXPECT_THROW((void)rx.receive(t.samples, 3, payload.size(), 96, 0, {}, ov),
               contract_violation);

  // An override over the same set is taken, dwell included, and the
  // transmitted schedule is the plan's.
  const HopPattern same = HopPattern::make(HopPatternType::parabolic, BandwidthSet::paper());
  const HopOverride taken{&same, 2};
  const Transmission o = tx.transmit(payload, 3, taken);
  const FramePlan plan = plan_frame(cfg, 3, o.symbols.size(), taken);
  ASSERT_EQ(o.schedule.segments.size(), plan.schedule.segments.size());
  for (std::size_t i = 0; i < plan.schedule.segments.size(); ++i) {
    EXPECT_EQ(o.schedule.segments[i].bw_index, plan.schedule.segments[i].bw_index);
    EXPECT_EQ(o.schedule.segments[i].start_sample, plan.schedule.segments[i].start_sample);
    EXPECT_LE(plan.schedule.segments[i].n_symbols, 2U);
  }
}

TEST(Receiver, GenieRoundTripOnCleanChannel) {
  for (auto type : {HopPatternType::linear, HopPatternType::exponential,
                    HopPatternType::parabolic}) {
    SystemConfig cfg = hopping_config(type);
    cfg.sync = SyncMode::genie;
    const BhssTransmitter tx(cfg);
    const BhssReceiver rx(cfg);
    channel::AwgnSource noise(33);
    const auto payload = test_payload(12);
    const Transmission t = tx.transmit(payload, 7);
    channel::LinkConfig link;
    link.snr_db = 20.0;
    link.tx_delay = 41;
    link.tail_pad = 64;
    const dsp::cvec sig = channel::transmit(t.samples, {}, link, noise);
    const RxResult res = rx.receive(sig, 7, payload.size(), 0, 41);
    EXPECT_TRUE(res.crc_ok) << to_string(type);
    EXPECT_EQ(res.payload, payload) << to_string(type);
    EXPECT_EQ(res.symbols, t.symbols) << to_string(type);
  }
}

class FixedLevelRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FixedLevelRoundTrip, EveryBandwidthDecodes) {
  SystemConfig cfg = hopping_config();
  cfg.hopping = false;
  cfg.pattern = HopPattern::fixed(cfg.pattern.bands(), GetParam());
  const BhssTransmitter tx(cfg);
  const BhssReceiver rx(cfg);
  channel::AwgnSource noise(44);
  const auto payload = test_payload(8);
  const Transmission t = tx.transmit(payload, 3);
  channel::LinkConfig link;
  link.snr_db = 15.0;
  link.tx_delay = 23;
  link.tail_pad = 64;
  const dsp::cvec sig = channel::transmit(t.samples, {}, link, noise);
  const RxResult res = rx.receive(sig, 3, payload.size(), 64, 23);
  EXPECT_TRUE(res.frame_detected);
  EXPECT_TRUE(res.crc_ok);
  EXPECT_EQ(res.payload, payload);
}

INSTANTIATE_TEST_SUITE_P(Levels, FixedLevelRoundTrip, ::testing::Range<std::size_t>(0, 7));

TEST(Receiver, PreambleRoundTripWithFullImpairments) {
  SystemConfig cfg = hopping_config(HopPatternType::parabolic);
  const BhssTransmitter tx(cfg);
  const BhssReceiver rx(cfg);
  channel::AwgnSource noise(55);
  const auto payload = test_payload(8);
  std::size_t ok = 0;
  for (std::uint64_t frame = 0; frame < 10; ++frame) {
    const Transmission t = tx.transmit(payload, frame);
    channel::LinkConfig link;
    link.snr_db = 18.0;
    link.tx_delay = 17 + 13 * frame;
    link.tail_pad = 64;
    link.phase = static_cast<float>(frame) * 0.61F - 2.9F;
    link.cfo = (static_cast<float>(frame % 5) - 2.0F) * 8e-5F;
    const dsp::cvec sig = channel::transmit(t.samples, {}, link, noise);
    const RxResult res = rx.receive(sig, frame, payload.size(), link.tx_delay + 64);
    if (res.crc_ok && res.payload == payload) ++ok;
    EXPECT_TRUE(res.frame_detected) << "frame " << frame;
    if (res.frame_detected) {
      // Acquisition through the (filtered) correlation window is accurate
      // to a couple of samples; the matched filter absorbs the residue.
      EXPECT_NEAR(static_cast<double>(res.sync.frame_start),
                  static_cast<double>(link.tx_delay), 2.0)
          << "frame " << frame;
    }
  }
  EXPECT_GE(ok, 9U);
}

TEST(Receiver, MissingFrameReportsNotDetected) {
  SystemConfig cfg = hopping_config();
  const BhssReceiver rx(cfg);
  channel::AwgnSource noise(66);
  const dsp::cvec sig = noise.generate(20000, 1.0);
  const RxResult res = rx.receive(sig, 0, 8, 256);
  EXPECT_FALSE(res.frame_detected);
  EXPECT_FALSE(res.crc_ok);
  EXPECT_TRUE(res.payload.empty());
}

TEST(Receiver, WrongFrameCounterFailsToDecode) {
  // Without the right shared state (schedule + scrambler) the frame is
  // unreadable — the security property of the shared random source.
  SystemConfig cfg = hopping_config();
  const BhssTransmitter tx(cfg);
  const BhssReceiver rx(cfg);
  channel::AwgnSource noise(77);
  const auto payload = test_payload(8);
  const Transmission t = tx.transmit(payload, 10);
  channel::LinkConfig link;
  link.snr_db = 20.0;
  link.tx_delay = 30;
  link.tail_pad = 64;
  const dsp::cvec sig = channel::transmit(t.samples, {}, link, noise);
  const RxResult res = rx.receive(sig, 11, payload.size(), 96, 30);
  EXPECT_FALSE(res.crc_ok);
}

TEST(Receiver, WrongSeedFailsToDecode) {
  SystemConfig cfg = hopping_config();
  const BhssTransmitter tx(cfg);
  SystemConfig eve_cfg = cfg;
  eve_cfg.seed = cfg.seed + 1;  // the jammer/eavesdropper's guess
  const BhssReceiver eve(eve_cfg);
  channel::AwgnSource noise(88);
  const auto payload = test_payload(8);
  const Transmission t = tx.transmit(payload, 0);
  channel::LinkConfig link;
  link.snr_db = 25.0;
  link.tx_delay = 30;
  link.tail_pad = 64;
  const dsp::cvec sig = channel::transmit(t.samples, {}, link, noise);
  const RxResult res = eve.receive(sig, 0, payload.size(), 96, 30);
  EXPECT_FALSE(res.crc_ok);
}

TEST(Receiver, HopDiagnosticsMatchSchedule) {
  SystemConfig cfg = hopping_config();
  cfg.sync = SyncMode::genie;
  const BhssTransmitter tx(cfg);
  const BhssReceiver rx(cfg);
  channel::AwgnSource noise(99);
  const auto payload = test_payload(8);
  const Transmission t = tx.transmit(payload, 4);
  channel::LinkConfig link;
  link.snr_db = 20.0;
  link.tx_delay = 10;
  link.tail_pad = 64;
  const dsp::cvec sig = channel::transmit(t.samples, {}, link, noise);
  const RxResult res = rx.receive(sig, 4, payload.size(), 0, 10);
  ASSERT_EQ(res.hops.size(), t.schedule.segments.size());
  for (std::size_t i = 0; i < res.hops.size(); ++i) {
    EXPECT_EQ(res.hops[i].bw_index, t.schedule.segments[i].bw_index);
  }
}

/// The hop filter as it was written before it read the capture in place:
/// the capture from a0 - lead copied and zero-padded to lead + needed + K
/// samples, filtered whole, then trimmed at lead + group_delay.
dsp::cvec padded_copy_slice(dsp::cspan buffer, std::size_t a0, std::size_t needed,
                            const FilterDecision& decision, std::size_t group_delay) {
  const std::size_t k_taps = decision.plan->taps.size();
  const std::size_t lead = std::min(a0, k_taps);
  const std::size_t begin = a0 - lead;
  const std::size_t in_len = lead + needed + k_taps;
  dsp::cvec padded(in_len, dsp::cf{0.0F, 0.0F});
  for (std::size_t i = 0; i < in_len && begin + i < buffer.size(); ++i) {
    padded[i] = buffer[begin + i];
  }
  dsp::cvec filtered(in_len);
  decision.plan->filter(padded, 0, filtered);
  dsp::cvec out(needed);
  for (std::size_t i = 0; i < needed; ++i) out[i] = filtered[lead + group_delay + i];
  return out;
}

// filtered_slice filters the capture where it lies, clipped where the
// padded copy ended: reading on past that end would move the last bits of
// nearly every filtered sample, which no decoded symbol may show.
TEST(Receiver, FilteredSliceMatchesThePaddedCopy) {
  dsp::cvec capture(40000);
  channel::AwgnSource(5).fill(capture, 1.0);
  // Each filter with the group delay the padded copy trimmed by: (K-1)/2
  // for the odd low-pass, K/2 for the power-of-two excision filters.
  std::vector<FilterDecision> decisions(3);
  const std::vector<std::size_t> group_delays = {1024, 128, 2048};
  decisions[0].kind = FilterDecision::Kind::lowpass;
  decisions[0].plan = dsp::lowpass_plan(2049, 0.05);  // 16384-point FFT
  for (const std::size_t k : {std::size_t{256}, std::size_t{4096}}) {
    dsp::fvec psd(k, 1.0F);
    for (std::size_t b = k / 16; b < k / 8; ++b) psd[b] = 1e4F;
    FilterDecision& d = decisions[k == 256 ? 1 : 2];
    d.kind = FilterDecision::Kind::excision;
    d.plan = dsp::ConvolverPlan::make(dsp::design_excision_whitening(psd));
  }
  struct Hop {
    std::size_t a0;
    std::size_t needed;
  };
  // From the start, inside the lead-in, mid-capture across FFT blocks, and
  // running over the end of the capture and past it.
  for (const Hop& hop : {Hop{0, 3000}, Hop{700, 500}, Hop{5000, 2000}, Hop{20000, 16000},
                         Hop{38000, 5000}, Hop{41000, 100}}) {
    for (std::size_t f = 0; f < decisions.size(); ++f) {
      const FilterDecision& d = decisions[f];
      const dsp::cvec got = BhssReceiver::filtered_slice(capture, hop.a0, hop.needed, d);
      const dsp::cvec want = padded_copy_slice(capture, hop.a0, hop.needed, d, group_delays[f]);
      ASSERT_EQ(got.size(), hop.needed);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), hop.needed * sizeof(dsp::cf)), 0)
          << "a0 " << hop.a0 << " needed " << hop.needed << " taps " << d.plan->taps.size();
    }
  }
}

}  // namespace
}  // namespace bhss::core
