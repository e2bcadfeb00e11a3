#include "sync/costas.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/contracts.hpp"
#include "dsp/simd/libm.hpp"

namespace bhss::sync {
namespace {

float wrap_phase(float phi) noexcept {
  constexpr float two_pi = 2.0F * std::numbers::pi_v<float>;
  while (phi > std::numbers::pi_v<float>) phi -= two_pi;
  while (phi < -std::numbers::pi_v<float>) phi += two_pi;
  return phi;
}

}  // namespace

CostasLoop::CostasLoop(float loop_bandwidth, float damping, float max_freq)
    : max_freq_(max_freq) {
  // A loop bandwidth outside (0, 1) rad/sample or a non-positive damping
  // factor yields gains that either never pull in or oscillate — both
  // look like "jamming wins" in BER sweeps while actually being a
  // receiver misconfiguration.
  BHSS_REQUIRE(loop_bandwidth > 0.0F && loop_bandwidth < 1.0F,
               "CostasLoop: loop_bandwidth must be in (0, 1) rad/sample");
  BHSS_REQUIRE(damping > 0.0F, "CostasLoop: damping must be > 0");
  BHSS_REQUIRE(max_freq > 0.0F && max_freq <= std::numbers::pi_v<float>,
               "CostasLoop: max_freq must be in (0, pi] rad/sample");
  // Standard 2nd-order loop gain mapping (Rice, "Digital Communications").
  const float denom = 1.0F + 2.0F * damping * loop_bandwidth + loop_bandwidth * loop_bandwidth;
  alpha_ = (4.0F * damping * loop_bandwidth) / denom;
  beta_ = (4.0F * loop_bandwidth * loop_bandwidth) / denom;
  BHSS_ENSURE(alpha_ > 0.0F && beta_ > 0.0F, "CostasLoop: derived loop gains must be positive");
}

dsp::cf CostasLoop::process(dsp::cf in) noexcept {
  const dsp::cf nco = dsp::simd::sincos(-phase_);
  const dsp::cf out = in * nco;

  // Decision-directed QPSK phase error, normalised by signal power to make
  // the loop gain amplitude-independent, then weighted by the instantaneous
  // amplitude relative to the running RMS: samples near the half-sine pulse
  // nulls carry no phase information, only noise, and must not drive the
  // loop at full gain.
  const float i = out.real();
  const float q = out.imag();
  const float power = i * i + q * q;
  avg_power_ += 0.01F * (power - avg_power_);
  float error = 0.0F;
  if (power > 1e-12F && avg_power_ > 1e-12F) {
    error = ((i >= 0.0F ? q : -q) - (q >= 0.0F ? i : -i)) / std::sqrt(power);
    const float weight = std::min(1.0F, power / avg_power_);
    error *= weight;
  }

  freq_ = std::clamp(freq_ + beta_ * error, -max_freq_, max_freq_);
  phase_ = wrap_phase(phase_ + freq_ + alpha_ * error);
  return out;
}

// Flattened so the per-sample step inlines: returned across a call, its
// cf goes through the stack as two float stores and one 64-bit load,
// which defeats store forwarding on every sample of this serial loop.
[[gnu::flatten]] void CostasLoop::process(dsp::cspan_mut x) noexcept {
  for (dsp::cf& s : x) s = process(s);
}

void CostasLoop::reset() noexcept {
  phase_ = 0.0F;
  freq_ = 0.0F;
  avg_power_ = 0.0F;
}

}  // namespace bhss::sync
