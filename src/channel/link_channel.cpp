#include "channel/link_channel.hpp"

#include <algorithm>
#include <cmath>

#include "channel/impairments.hpp"
#include "core/contracts.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/utils.hpp"

namespace bhss::channel {

dsp::cvec transmit(dsp::cspan tx, dsp::cspan jam, const LinkConfig& cfg, AwgnSource& noise) {
  // The channel is the junction where every waveform source (modulator,
  // jammer, impairment models) meets; a non-finite sample here would be
  // amplified into a fully corrupted capture downstream.
  BHSS_REQUIRE(dsp::all_finite(tx), "transmit: tx waveform contains non-finite samples");
  BHSS_REQUIRE(dsp::all_finite(jam), "transmit: jammer waveform contains non-finite samples");
  BHSS_REQUIRE(std::isfinite(cfg.snr_db), "transmit: snr_db must be finite");
  BHSS_REQUIRE(!cfg.jnr_db.has_value() || std::isfinite(*cfg.jnr_db),
               "transmit: jnr_db must be finite");
  BHSS_REQUIRE(std::isfinite(cfg.cfo) && std::isfinite(cfg.phase),
               "transmit: cfo/phase impairments must be finite");
  const std::size_t total_len = cfg.tx_delay + tx.size() + cfg.tail_pad;

  // Signal path: place at the arrival delay, then normalise, impair and
  // scale to the requested SNR in place.
  dsp::cvec out(total_len, dsp::cf{0.0F, 0.0F});
  const dsp::cspan_mut sig = dsp::cspan_mut{out}.subspan(cfg.tx_delay, tx.size());
  std::copy(tx.begin(), tx.end(), sig.begin());
  dsp::scale_to_power(sig, 1.0);
  if (cfg.phase != 0.0F) apply_phase(sig, cfg.phase);
  if (cfg.cfo != 0.0F) apply_cfo(sig, cfg.cfo);
  const auto sig_gain = static_cast<float>(std::sqrt(dsp::db_to_linear(cfg.snr_db)));
  dsp::simd::scale_inplace(out.data(), sig_gain, out.size());

  // Jammer path: normalise over its own duration, scale to the JNR.
  if (cfg.jnr_db.has_value() && !jam.empty()) {
    const float norm = dsp::power_gain(jam, 1.0);
    const auto jam_gain = static_cast<float>(std::sqrt(dsp::db_to_linear(*cfg.jnr_db)));
    const std::size_t n = std::min(total_len, jam.size());
    for (std::size_t i = 0; i < n; ++i) out[i] += jam_gain * (jam[i] * norm);
  }

  // Thermal noise floor at unit power.
  noise.add_to(out, 1.0);
  BHSS_ENSURE(dsp::all_finite(dsp::cspan{out}), "transmit: channel emitted non-finite samples");
  return out;
}

}  // namespace bhss::channel
