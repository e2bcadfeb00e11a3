#include "channel/awgn.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace bhss::channel {
namespace {

/// Samples per kernel call in add_to: bounds the stack scratch.
constexpr std::size_t kChunk = 256;

float rail_sigma(double power) { return static_cast<float>(std::sqrt(power / 2.0)); }

}  // namespace

dsp::cvec AwgnSource::generate(std::size_t n, double power) {
  dsp::cvec out(n);
  fill(out, power);
  return out;
}

void AwgnSource::fill(dsp::cspan_mut out, double power) {
  if (out.empty()) return;
  dsp::simd::gaussian_cf(engine_, out.data(), out.size());
  dsp::simd::scale_inplace(out.data(), rail_sigma(power), out.size());
}

void AwgnSource::add_to(dsp::cspan_mut x, double power) {
  const float sigma = rail_sigma(power);
  std::array<dsp::cf, kChunk> chunk;
  for (std::size_t pos = 0; pos < x.size(); pos += kChunk) {
    const std::size_t len = std::min(kChunk, x.size() - pos);
    dsp::simd::gaussian_cf(engine_, chunk.data(), len);
    dsp::simd::scale_inplace(chunk.data(), sigma, len);
    for (std::size_t i = 0; i < len; ++i) x[pos + i] += chunk[i];
  }
}

}  // namespace bhss::channel
