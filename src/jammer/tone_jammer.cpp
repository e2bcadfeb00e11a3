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

SweptJammer::SweptJammer(double f_lo, double f_hi, std::size_t sweep_samples,
                         std::uint64_t seed)
    : f_lo_(f_lo), f_hi_(f_hi) {
  BHSS_REQUIRE(f_lo < f_hi && f_lo > -0.5 && f_hi < 0.5,
               "SweptJammer: need -0.5 < f_lo < f_hi < 0.5");
  BHSS_REQUIRE(sweep_samples != 0, "SweptJammer: sweep must be > 0");
  rate_ = (f_hi - f_lo) / static_cast<double>(sweep_samples);
  // BHSS_ANALYZE_SUPPRESS(d2-rng-discipline): adversary-domain RNG, explicitly seeded per instance (see ToneJammer)
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  freq_ = f_lo + uniform(rng) * (f_hi - f_lo);
  phase_ = uniform(rng) * 2.0 * std::numbers::pi;
}

dsp::cvec SweptJammer::generate(std::size_t n) {
  dsp::cvec out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = dsp::cf{static_cast<float>(std::cos(phase_)),
                     static_cast<float>(std::sin(phase_))};
    phase_ += 2.0 * std::numbers::pi * freq_;
    if (phase_ > std::numbers::pi) phase_ -= 2.0 * std::numbers::pi;
    freq_ += rate_;
    if (freq_ > f_hi_) freq_ = f_lo_;  // wrap the sweep
  }
  return out;
}

}  // namespace bhss::jammer
