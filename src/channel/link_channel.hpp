#pragma once

/// @file link_channel.hpp
/// The full "cables + T-connector + attenuators" channel of Fig. 12:
/// combines the transmitter waveform, a jammer waveform and thermal noise
/// into the receiver's input stream with calibrated power levels.
///
/// Power convention: the noise floor has unit power. `snr_db` sets the
/// received signal power relative to noise, `jnr_db` the received jammer
/// power relative to noise. The signal-to-jamming ratio is then
/// SJR = snr_db - jnr_db, and sweeping snr_db at fixed jnr_db reproduces
/// the paper's "vary the transmit gain against a fixed jammer" procedure.

#include <cstdint>
#include <optional>

#include "channel/awgn.hpp"
#include "dsp/types.hpp"

namespace bhss::channel {

/// Channel configuration for one packet transmission.
struct LinkConfig {
  double snr_db = 20.0;            ///< received signal power / noise power
  std::optional<double> jnr_db;    ///< received jammer power / noise power; nullopt = no jammer
  std::size_t tx_delay = 0;        ///< signal arrival delay [samples]
  float phase = 0.0F;              ///< carrier phase offset [rad]
  float cfo = 0.0F;                ///< carrier frequency offset [rad/sample]
  std::size_t tail_pad = 0;        ///< extra noise-only samples after the signal
};

/// One-shot channel: y = g_s * delay(rot(tx)) + g_j * jam + awgn(1.0).
/// The transmitter waveform is normalised to unit mean power over its own
/// duration before applying the SNR gain; the jammer waveform likewise.
/// Both waveforms are taken by value and used as scratch: a caller that
/// moves them in holds no copy, and the capture (tx_delay + tx.size() +
/// tail_pad samples) is built in the jammer waveform's storage, so a
/// jammer that covers it costs no allocation that long.
/// @param tx   transmitter baseband waveform
/// @param jam  jammer baseband waveform; should cover the capture if
///             present (excess is clipped, shortfall zero-padded)
/// @param cfg  power levels and impairments
/// @param noise seeded noise source (advanced by the call)
[[nodiscard]] dsp::cvec transmit(dsp::cvec tx, dsp::cvec jam, const LinkConfig& cfg,
                                 AwgnSource& noise);

}  // namespace bhss::channel
