#include "phy/modem.hpp"

#include <map>
#include <mutex>

#include "core/contracts.hpp"
#include "dsp/pulse.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/utils.hpp"

namespace bhss::phy {

QpskModem::QpskModem(std::size_t samples_per_chip)
    : sps_(samples_per_chip), pulse_(dsp::half_sine_pulse(2 * samples_per_chip)) {
  BHSS_REQUIRE(sps_ >= 2 && sps_ % 2 == 0, "QpskModem: samples_per_chip must be even and >= 2");
  // One pulse spans exactly one chip pair: modulate's rail mapping and the
  // decimating matched filter's sampling instants both assume it. A
  // non-finite tap would silently zero every soft chip downstream.
  BHSS_ENSURE(pulse_.size() == 2 * sps_ && dsp::all_finite(dsp::fspan{pulse_}),
              "QpskModem: the pulse must be 2 * sps finite samples");
}

const QpskModem& QpskModem::of(std::size_t samples_per_chip) {
  static std::mutex mutex;
  static std::map<std::size_t, QpskModem> memo;
  const std::scoped_lock lock(mutex);
  return memo.try_emplace(samples_per_chip, samples_per_chip).first->second;
}

void QpskModem::modulate(std::span<const float> chips, dsp::cspan_mut out) const {
  BHSS_REQUIRE(chips.size() % 2 == 0, "QpskModem: chip count must be even");
  BHSS_REQUIRE(out.size() == chips.size() * sps_, "QpskModem: output must hold chips * sps");
  const std::size_t pulse_len = pulse_.size();  // == 2 * sps_
  for (std::size_t m = 0; m < chips.size() / 2; ++m) {
    const float a = chips[2 * m];      // in-phase chip
    const float b = chips[2 * m + 1];  // quadrature chip
    dsp::simd::scale_pulse(a, b, pulse_.data(), out.data() + pulse_len * m, pulse_len);
  }
}

dsp::cvec QpskModem::demodulate_pairs(dsp::cspan samples, std::size_t n_chips) const {
  BHSS_REQUIRE(n_chips % 2 == 0, "QpskModem: chip count must be even");
  BHSS_REQUIRE(samples.size() >= n_chips * sps_,
               "QpskModem: not enough samples for requested chips");

  // Matched-filter output at the end of each chip pair only (the
  // matched-filter peak of non-overlapping pulses). Everything between
  // the sampling instants is never read, so the decimating kernel skips
  // computing it: sampling instant m sits at sample pulse_len*(m+1)-1,
  // which is always >= pulse_len-1, so the zero-state filter start-up
  // region never reaches a sampled output.
  const std::size_t n_pairs = n_chips / 2;
  const std::size_t pulse_len = pulse_.size();
  dsp::cvec pairs(n_pairs);
  dsp::simd::fir_decimate_real(pulse_.data(), pulse_len, samples.data(), pairs.data(), n_pairs,
                               pulse_len);
  return pairs;
}

}  // namespace bhss::phy
