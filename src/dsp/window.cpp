#include "dsp/window.hpp"

#include <cmath>
#include <numbers>

namespace bhss::dsp {

fvec make_window(Window type, std::size_t n) {
  fvec w(n, 1.0F);
  if (n <= 1) return w;
  const double m = static_cast<double>(n - 1);
  constexpr double two_pi = 2.0 * std::numbers::pi;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / m;  // 0..1 across the window
    double v = 1.0;
    switch (type) {
      case Window::rectangular:
        v = 1.0;
        break;
      case Window::hann:
        v = 0.5 - 0.5 * std::cos(two_pi * x);
        break;
      case Window::blackman:
        v = 0.42 - 0.5 * std::cos(two_pi * x) + 0.08 * std::cos(2.0 * two_pi * x);
        break;
    }
    w[i] = static_cast<float>(v);
  }
  return w;
}

double window_power(fspan w) noexcept {
  double acc = 0.0;
  for (float v : w) acc += static_cast<double>(v) * static_cast<double>(v);
  return acc;
}

}  // namespace bhss::dsp
