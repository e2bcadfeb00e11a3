#include "jammer/noise_jammer.hpp"

#include <stdexcept>

#include "core/contracts.hpp"
#include "dsp/utils.hpp"

namespace bhss::jammer {

NoiseJammer::NoiseJammer(double bandwidth_frac, std::uint64_t seed, std::size_t num_taps)
    : bandwidth_frac_(bandwidth_frac), noise_(seed) {
  BHSS_REQUIRE(bandwidth_frac > 0.0 && bandwidth_frac <= 1.0,
               "NoiseJammer: bandwidth_frac must be in (0, 1]");
  if (bandwidth_frac < 1.0) {
    // Low-pass at half the two-sided bandwidth; complex baseband noise then
    // occupies [-bw/2, +bw/2]. Jammers of one bandwidth share the plan.
    shaper_ = dsp::lowpass_plan(num_taps | 1, bandwidth_frac / 2.0, dsp::Window::blackman);
  }
}

void NoiseJammer::fill(dsp::cspan_mut out) {
  if (shaper_ == nullptr) {
    noise_.fill(out, 1.0);
    return;
  }

  // Generate with lead-in and keep what follows it, so the filter
  // transient does not leave a quiet gap at the start of the jamming burst.
  const std::size_t lead = shaper_->taps.size();
  raw_.resize(out.size() + lead);
  noise_.fill(raw_, 1.0);
  shaper_->filter(raw_, lead, out);
  dsp::scale_to_power(out, 1.0);
}

dsp::cvec NoiseJammer::generate(std::size_t n) {
  dsp::cvec out(n);
  fill(out);
  return out;
}

}  // namespace bhss::jammer
