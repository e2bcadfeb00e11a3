// Quickstart: send a message over a jammed channel with BHSS.
//
// Demonstrates the minimal public API:
//   1. build a shared SystemConfig (the pre-shared secret of the link),
//   2. transmit a payload with BhssTransmitter,
//   3. run it through the AWGN channel simulator with a narrow-band
//      jammer 25 dB above the noise floor,
//   4. receive with BhssReceiver — once with the adaptive interference
//      filters of the paper, once with filtering disabled.
//
// Expected output: the filtered receiver recovers the message; the
// unfiltered one does not.

#include <cstdio>
#include <string>

#include "channel/link_channel.hpp"
#include "core/receiver.hpp"
#include "core/transmitter.hpp"
#include "jammer/noise_jammer.hpp"

int main() {
  using namespace bhss;

  // 1. Shared link configuration: four bandwidths between 1.25 and 10 MHz
  //    at 20 MS/s, hopped per the parabolic pattern. Transmitter and
  //    receiver must agree on every field (incl. the seed).
  core::SystemConfig config;
  config.seed = 0xC0FFEE;
  config.pattern = core::HopPattern::make(core::HopPatternType::parabolic,
                                          core::BandwidthSet(20e6, {2, 4, 8, 16}));

  const core::BhssTransmitter tx(config);
  const core::BhssReceiver rx(config);

  // 2. Transmit a payload.
  const std::string message = "hello BHSS";
  const std::vector<std::uint8_t> payload(message.begin(), message.end());
  const core::Transmission t = tx.transmit(payload, /*frame_counter=*/0);
  std::printf("transmitted %zu bytes as %zu symbols over %zu hops (%zu samples)\n",
              payload.size(), t.symbols.size(), t.schedule.segments.size(),
              t.samples.size());

  // 3. Channel: 15 dB SNR, plus a 156 kHz noise jammer 25 dB above the
  //    noise floor (i.e. 10 dB above the signal) — narrow against every
  //    hop bandwidth, so the excision filter can always dig it out.
  channel::LinkConfig link;
  link.snr_db = 15.0;
  link.jnr_db = 25.0;
  link.tx_delay = 100;
  link.tail_pad = 64;
  link.phase = 1.1F;
  link.cfo = 5e-5F;

  jammer::NoiseJammer jammer(1.0 / 128.0, /*seed=*/42);
  const dsp::cvec jam = jammer.generate(link.tx_delay + t.samples.size() + link.tail_pad);
  channel::AwgnSource noise(7);
  const dsp::cvec received = channel::transmit(t.samples, jam, link, noise);

  // 4a. Adaptive receiver (the paper's §4.2 control logic).
  const core::RxResult good = rx.receive(received, 0, payload.size(), 256);
  std::printf("adaptive filters : detected=%d crc_ok=%d payload=\"%s\"\n",
              good.frame_detected, good.crc_ok,
              std::string(good.payload.begin(), good.payload.end()).c_str());
  for (std::size_t h = 0; h < good.hops.size(); ++h) {
    const char* kind = good.hops[h].filter == core::FilterDecision::Kind::none ? "none"
                       : good.hops[h].filter == core::FilterDecision::Kind::lowpass
                           ? "low-pass"
                           : "excision";
    std::printf("  hop %zu at %5.3f MHz -> %s\n", h,
                config.pattern.bands().bandwidth_hz(good.hops[h].bw_index) / 1e6, kind);
  }

  // 4b. Same samples, filters off: the jammer wins.
  core::SystemConfig raw_cfg = config;
  raw_cfg.filter_policy = core::FilterPolicy::off;
  const core::BhssReceiver raw_rx(raw_cfg);
  const core::RxResult bad = raw_rx.receive(received, 0, payload.size(), 256);
  std::printf("filters disabled : detected=%d crc_ok=%d\n", bad.frame_detected, bad.crc_ok);

  return good.crc_ok && !bad.crc_ok ? 0 : 1;
}
