#include "jammer/tone_jammer.hpp"

#include <cmath>
#include <numbers>
#include <random>
#include <stdexcept>

#include "core/contracts.hpp"

namespace bhss::jammer {

ToneJammer::ToneJammer(double freq, std::uint64_t seed) : freq_(freq) {
  BHSS_REQUIRE(freq > -0.5 && freq < 0.5, "ToneJammer: frequency must be in (-0.5, 0.5)");
  // BHSS_ANALYZE_SUPPRESS(d2-rng-discipline): adversary-domain phase randomization, explicitly seeded per instance
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  phase_ = uniform(rng) * 2.0 * std::numbers::pi;
}

dsp::cvec ToneJammer::generate(std::size_t n) {
  dsp::cvec out(n);
  const double step = 2.0 * std::numbers::pi * freq_;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = dsp::cf{static_cast<float>(std::cos(phase_)), static_cast<float>(std::sin(phase_))};
    phase_ += step;
    if (phase_ > std::numbers::pi) phase_ -= 2.0 * std::numbers::pi;
    if (phase_ < -std::numbers::pi) phase_ += 2.0 * std::numbers::pi;
  }
  return out;
}

}  // namespace bhss::jammer
