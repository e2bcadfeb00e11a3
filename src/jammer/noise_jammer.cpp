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
    // occupies [-bw/2, +bw/2].
    const dsp::fvec taps =
        dsp::design_lowpass(num_taps | 1, bandwidth_frac / 2.0, dsp::Window::blackman);
    shaper_.emplace(dsp::cspan{dsp::to_complex(taps)});
  }
}

dsp::cvec NoiseJammer::generate(std::size_t n) {
  if (!shaper_.has_value()) return noise_.generate(n, 1.0);

  // Generate with lead-in so the filter transient does not leave a quiet
  // gap at the start of the jamming burst.
  const std::size_t lead = shaper_->num_taps();
  raw_.resize(n + lead);
  noise_.fill(raw_, 1.0);
  dsp::cvec out;
  shaper_->filter(raw_, out);
  out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(lead));
  dsp::scale_to_power(out, 1.0);
  return out;
}

}  // namespace bhss::jammer
