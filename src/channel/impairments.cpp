#include "channel/impairments.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"
#include "dsp/simd/simd.hpp"

namespace bhss::channel {

void apply_phase(dsp::cspan_mut x, float phase) noexcept {
  constexpr std::size_t kChunk = 256;
  std::array<dsp::cf, kChunk> rot;
  rot.fill(dsp::cf{std::cos(phase), std::sin(phase)});
  for (std::size_t pos = 0; pos < x.size(); pos += kChunk) {
    dsp::simd::cmul_inplace(x.data() + pos, rot.data(), std::min(kChunk, x.size() - pos));
  }
}

void apply_cfo(dsp::cspan_mut x, float cfo) noexcept {
  // Incremental rotation with periodic re-normalisation to bound drift.
  dsp::cf osc{1.0F, 0.0F};
  const dsp::cf step{std::cos(cfo), std::sin(cfo)};
  std::size_t count = 0;
  for (dsp::cf& s : x) {
    s *= osc;
    // osc * step written out: osc and step stay finite, so these are the
    // bits of std::complex's fast path, without its NaN check on this
    // serial chain.
    osc = dsp::cf{osc.real() * step.real() - osc.imag() * step.imag(),
                  osc.real() * step.imag() + osc.imag() * step.real()};
    if (++count % 4096 == 0) {
      const float mag = std::abs(osc);
      if (mag > 0.0F) osc /= mag;
    }
  }
}

dsp::cvec apply_delay(dsp::cspan x, std::size_t delay, std::size_t total_len) {
  dsp::cvec out(total_len, dsp::cf{0.0F, 0.0F});
  for (std::size_t i = 0; i < x.size() && delay + i < total_len; ++i) out[delay + i] = x[i];
  return out;
}

dsp::cvec apply_fractional_delay(dsp::cspan x, double frac) {
  BHSS_REQUIRE(frac >= 0.0 && frac < 1.0, "apply_fractional_delay: frac must be in [0, 1)");
  const auto f = static_cast<float>(frac);
  dsp::cvec out(x.size() + 1, dsp::cf{0.0F, 0.0F});
  // y[n] = (1-f) x[n] + f x[n-1]: a one-tap linear interpolator.
  for (std::size_t n = 0; n < x.size(); ++n) {
    out[n] += (1.0F - f) * x[n];
    out[n + 1] += f * x[n];
  }
  return out;
}

}  // namespace bhss::channel
