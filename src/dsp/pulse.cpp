#include "dsp/pulse.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/contracts.hpp"

namespace bhss::dsp {

fvec half_sine_pulse(std::size_t samples_per_chip) {
  BHSS_REQUIRE(samples_per_chip != 0, "half_sine_pulse: sps must be > 0");
  fvec g(samples_per_chip);
  double e = 0.0;
  for (std::size_t i = 0; i < samples_per_chip; ++i) {
    // Sample at the midpoint of each interval so even sps=1 or 2 carry energy.
    const double t = (static_cast<double>(i) + 0.5) / static_cast<double>(samples_per_chip);
    g[i] = static_cast<float>(std::sin(std::numbers::pi * t));
    e += static_cast<double>(g[i]) * static_cast<double>(g[i]);
  }
  const auto norm = static_cast<float>(1.0 / std::sqrt(e));
  for (float& v : g) v *= norm;
  return g;
}

}  // namespace bhss::dsp
