#include "jammer/duty_cycle_jammer.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"

namespace bhss::jammer {

namespace {

std::size_t quantised_on_samples(std::size_t period_samples, double duty) {
  BHSS_REQUIRE(period_samples >= 1, "DutyCycleJammer: period must be >= 1 sample");
  BHSS_REQUIRE(duty > 0.0 && duty <= 1.0, "DutyCycleJammer: duty must lie in (0, 1]");
  const auto rounded =
      static_cast<std::size_t>(std::llround(static_cast<double>(period_samples) * duty));
  return std::clamp<std::size_t>(rounded, 1, period_samples);
}

}  // namespace

DutyCycleJammer::DutyCycleJammer(double bandwidth_frac, std::size_t period_samples, double duty,
                                 std::uint64_t seed)
    : period_samples_(period_samples),
      on_samples_(quantised_on_samples(period_samples, duty)),
      // Gain from the *realised* duty so quantised burst edges still
      // leave the average power exactly unit.
      burst_gain_(1.0 / std::sqrt(static_cast<double>(on_samples_) /
                                  static_cast<double>(period_samples_))),
      source_(bandwidth_frac, seed) {}

dsp::cvec DutyCycleJammer::generate(std::size_t n) {
  // Draw the full noise stream first, then gate it: the RNG advance and
  // the per-call power normalisation depend only on `n`, never on where
  // the burst phase happens to sit.
  dsp::cvec out = source_.generate(n);
  const float gain = static_cast<float>(burst_gain_);
  // Gate run by run: the rest of the burst or of the gap, cut at n.
  for (std::size_t i = 0; i < n;) {
    const bool on = pos_ < on_samples_;
    const std::size_t run = std::min((on ? on_samples_ : period_samples_) - pos_, n - i);
    if (on) {
      for (std::size_t k = i; k < i + run; ++k) out[k] *= gain;
    } else {
      std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(i), run, dsp::cf{0.0F, 0.0F});
    }
    i += run;
    pos_ += run;
    if (pos_ == period_samples_) pos_ = 0;
  }
  return out;
}

}  // namespace bhss::jammer
