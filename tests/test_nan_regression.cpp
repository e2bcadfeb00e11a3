// NaN-propagation regression tests. The raw DSP kernels propagate NaN
// arithmetically (that is IEEE-754, not a bug), which is exactly why the
// boundaries above them must deal with poisoned buffers explicitly: a
// single bad sample would otherwise flow through filter selection,
// despreading and the CRC and come out the far side as a silently wrong
// BER measurement. The DSP/channel boundaries reject loudly (contracts);
// the receiver front end degrades gracefully instead — it scrubs
// non-finite samples to zero-sample erasures, flags the capture, and
// keeps decoding. These tests pin all three layers of that story.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "channel/link_channel.hpp"
#include "core/contracts.hpp"
#include "core/receiver.hpp"
#include "core/transmitter.hpp"
#include "dsp/fir.hpp"
#include "dsp/psd.hpp"
#include "dsp/utils.hpp"

namespace bhss {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

bool any_nan(dsp::cspan x) {
  for (const dsp::cf& s : x) {
    if (std::isnan(s.real()) || std::isnan(s.imag())) return true;
  }
  return false;
}

dsp::cvec impulse_train(std::size_t n) {
  dsp::cvec x(n, {0.0F, 0.0F});
  for (std::size_t i = 0; i < n; i += 16) x[i] = {1.0F, 0.0F};
  return x;
}

// ---------------------------------------------------------------------------
// Kernel level: NaN flows through the filters. If a future "optimisation"
// started flushing NaN to zero these tests would catch the semantic change.

TEST(NanPropagation, ConvolverPlanPropagatesNan) {
  const dsp::fvec taps = dsp::design_lowpass(63, 0.2);
  const auto plan = dsp::ConvolverPlan::make(dsp::to_complex(taps));
  dsp::cvec x = impulse_train(512);
  x[100] = {0.0F, kNaN};
  dsp::cvec y(x.size());
  plan->filter(x, 0, y);
  // The FFT smears a single NaN across the whole block — all the more
  // reason the receiver must reject it up front.
  EXPECT_TRUE(any_nan(y));
}

TEST(NanPropagation, AllFiniteSeesEitherRail) {
  dsp::cvec x(8, {1.0F, -1.0F});
  EXPECT_TRUE(dsp::all_finite(dsp::cspan{x}));
  x[3] = {std::numeric_limits<float>::infinity(), 0.0F};
  EXPECT_FALSE(dsp::all_finite(dsp::cspan{x}));
  x[3] = {1.0F, kNaN};
  EXPECT_FALSE(dsp::all_finite(dsp::cspan{x}));
}

// ---------------------------------------------------------------------------
// Boundary level: the contracts reject poisoned buffers loudly.

TEST(NanRejection, WelchPsdRejectsNanInput) {
  dsp::cvec x = impulse_train(1024);
  x[17] = {kNaN, 0.0F};
  EXPECT_THROW(auto p = dsp::welch_psd(x, 256), contract_violation);
}

TEST(NanRejection, ChannelRejectsNanWaveform) {
  channel::AwgnSource noise(123);
  channel::LinkConfig link;
  link.snr_db = 10.0;
  dsp::cvec tx = impulse_train(256);
  tx[0] = {kNaN, kNaN};
  EXPECT_THROW(auto y = channel::transmit(tx, {}, link, noise), contract_violation);
}

TEST(NanRejection, ReceiverScrubsPoisonedCaptureInsteadOfGarbageBer) {
  // End to end: a valid frame whose capture is then poisoned with a burst
  // of NaN must not poison the decode. The receiver scrubs the bad
  // samples to zero erasures before they can reach the PSD estimator or
  // the correlators, reports the capture via `input_scrubbed`, and
  // decodes the rest of the frame normally.
  core::SystemConfig cfg;
  cfg.pattern = core::HopPattern::make(core::HopPatternType::linear,
                                       core::BandwidthSet::paper());
  cfg.sync = core::SyncMode::genie;
  const core::BhssTransmitter tx(cfg);
  const core::BhssReceiver rx(cfg);
  channel::AwgnSource noise(7);

  std::vector<std::uint8_t> payload(8);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 29 + 3);
  }
  const core::Transmission t = tx.transmit(payload, 1);
  channel::LinkConfig link;
  link.snr_db = 20.0;
  link.tx_delay = 41;
  link.tail_pad = 64;
  dsp::cvec sig = channel::transmit(t.samples, {}, link, noise);

  // Sanity: the clean capture decodes and is not reported as scrubbed.
  const core::RxResult clean = rx.receive(sig, 1, payload.size(), 0, 41);
  ASSERT_TRUE(clean.crc_ok);
  ASSERT_EQ(clean.payload, payload);
  EXPECT_FALSE(clean.input_scrubbed);

  // Poison a stretch in the middle of the frame. The decode must survive
  // (a 32-sample erasure is far below the processing gain) and the
  // result must be flagged — silent acceptance would hide a faulty ADC.
  for (std::size_t i = sig.size() / 2; i < sig.size() / 2 + 32; ++i) sig[i] = {kNaN, kNaN};
  core::RxResult scrubbed;
  EXPECT_NO_THROW(scrubbed = rx.receive(sig, 1, payload.size(), 0, 41));
  EXPECT_TRUE(scrubbed.input_scrubbed);
  EXPECT_TRUE(scrubbed.crc_ok);
  EXPECT_EQ(scrubbed.payload, payload);
}

}  // namespace
}  // namespace bhss
