#include "channel/link_channel.hpp"

#include <cmath>
#include <utility>

#include "channel/impairments.hpp"
#include "core/contracts.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/utils.hpp"

namespace bhss::channel {

dsp::cvec transmit(dsp::cvec tx, dsp::cvec jam, const LinkConfig& cfg, AwgnSource& noise) {
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

  // Signal path: normalise, impair and scale to the requested SNR in place.
  dsp::scale_to_power(tx, 1.0);
  if (cfg.phase != 0.0F) apply_phase(tx, cfg.phase);
  if (cfg.cfo != 0.0F) apply_cfo(tx, cfg.cfo);
  const auto sig_gain = static_cast<float>(std::sqrt(dsp::db_to_linear(cfg.snr_db)));
  if (!tx.empty()) dsp::simd::scale_inplace(tx.data(), sig_gain, tx.size());

  // Jammer path: normalise over its own duration, scale to the JNR.
  const bool jammed = cfg.jnr_db.has_value() && !jam.empty();
  const float norm = jammed ? dsp::power_gain(jam, 1.0) : 1.0F;
  const float jam_gain =
      jammed ? static_cast<float>(std::sqrt(dsp::db_to_linear(*cfg.jnr_db))) : 0.0F;

  // The capture is built in the jammer's storage, its excess clipped and a
  // shortfall (or no jammer at all) zero-padded: the scaled jammer, plus
  // the signal at its arrival delay. A zero here may carry either sign;
  // the noise added below is never -0, so that sign never reaches the
  // capture's bits.
  if (!jammed) jam.clear();
  jam.resize(total_len);
  dsp::cvec out = std::move(jam);
  for (dsp::cf& s : out) s = jam_gain * (s * norm);
  for (std::size_t i = 0; i < tx.size(); ++i) out[cfg.tx_delay + i] += tx[i];

  // Thermal noise floor at unit power.
  noise.add_to(out, 1.0);
  BHSS_ENSURE(dsp::all_finite(dsp::cspan{out}), "transmit: channel emitted non-finite samples");
  return out;
}

}  // namespace bhss::channel
