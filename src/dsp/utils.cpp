#include "dsp/utils.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
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
  simd::scale_inplace(x.data(), gain, x.size());
}

namespace {

/// True iff no value has all exponent bits set (Inf or NaN). The scan has
/// no branch and no early exit, so GCC vectorises it at the baseline ISA.
bool all_finite_floats(const float* v, std::size_t n) noexcept {
  std::uint32_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bad |= static_cast<std::uint32_t>((std::bit_cast<std::uint32_t>(v[i]) & 0x7f800000U) ==
                                      0x7f800000U);
  }
  return bad == 0;
}

}  // namespace

bool all_finite(cspan x) noexcept {
  return all_finite_floats(reinterpret_cast<const float*>(x.data()), 2 * x.size());
}

bool all_finite(fspan x) noexcept { return all_finite_floats(x.data(), x.size()); }

}  // namespace bhss::dsp
