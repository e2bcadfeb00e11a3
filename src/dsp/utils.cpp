#include "dsp/utils.hpp"

#include <cmath>
#include <numbers>

namespace bhss::dsp {

double db_to_linear(double db) noexcept { return std::pow(10.0, db / 10.0); }

double linear_to_db(double linear) noexcept {
  if (linear <= 0.0) return -300.0;
  return 10.0 * std::log10(linear);
}

double sinc(double x) noexcept {
  if (std::abs(x) < 1e-12) return 1.0;
  const double px = std::numbers::pi * x;
  return std::sin(px) / px;
}

double mean_power(cspan x) noexcept {
  if (x.empty()) return 0.0;
  return energy(x) / static_cast<double>(x.size());
}

double energy(cspan x) noexcept {
  double acc = 0.0;
  for (const cf& s : x) acc += static_cast<double>(std::norm(s));
  return acc;
}

float power_gain(cspan x, double target_power) noexcept {
  const double current = mean_power(x);
  if (current <= 0.0) return 1.0F;
  return static_cast<float>(std::sqrt(target_power / current));
}

void scale_to_power(cspan_mut x, double target_power) noexcept {
  const float gain = power_gain(x, target_power);
  if (gain == 1.0F) return;
  for (cf& s : x) s *= gain;
}

bool all_finite(cspan x) noexcept {
  for (const cf& s : x) {
    if (!std::isfinite(s.real()) || !std::isfinite(s.imag())) return false;
  }
  return true;
}

bool all_finite(fspan x) noexcept {
  for (float v : x) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace bhss::dsp
