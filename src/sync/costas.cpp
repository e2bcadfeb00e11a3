#include "sync/costas.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/contracts.hpp"
#include "dsp/simd/libm.hpp"

namespace bhss::sync {
namespace {

/// Loop damping factor: 1/sqrt(2), the usual compromise between settling
/// time and overshoot.
constexpr float kDamping = 0.7071F;
static_assert(kDamping > 0.0F, "the damping factor must be > 0");

/// Clamp of the frequency integrator [rad/sample].
constexpr float kMaxFreq = 0.5F;
static_assert(kMaxFreq > 0.0F && kMaxFreq <= std::numbers::pi_v<float>,
              "the frequency clamp must be in (0, pi] rad/sample");

float wrap_phase(float phi) noexcept {
  constexpr float two_pi = 2.0F * std::numbers::pi_v<float>;
  while (phi > std::numbers::pi_v<float>) phi -= two_pi;
  while (phi < -std::numbers::pi_v<float>) phi += two_pi;
  return phi;
}

}  // namespace

CostasLoop::CostasLoop(float loop_bandwidth) {
  // A loop bandwidth outside (0, 1) rad/sample yields gains that either
  // never pull in or oscillate — both look like "jamming wins" in BER
  // sweeps while actually being a receiver misconfiguration.
  BHSS_REQUIRE(loop_bandwidth > 0.0F && loop_bandwidth < 1.0F,
               "CostasLoop: loop_bandwidth must be in (0, 1) rad/sample");
  // Standard 2nd-order loop gain mapping (Rice, "Digital Communications").
  const float denom = 1.0F + 2.0F * kDamping * loop_bandwidth + loop_bandwidth * loop_bandwidth;
  alpha_ = (4.0F * kDamping * loop_bandwidth) / denom;
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

  freq_ = std::clamp(freq_ + beta_ * error, -kMaxFreq, kMaxFreq);
  phase_ = wrap_phase(phase_ + freq_ + alpha_ * error);
  return out;
}

// Flattened so the per-sample step inlines: returned across a call, its
// cf goes through the stack as two float stores and one 64-bit load,
// which defeats store forwarding on every sample of this serial loop.
[[gnu::flatten]] void CostasLoop::process(dsp::cspan_mut x) noexcept {
  for (dsp::cf& s : x) s = process(s);
}

// Flattened for the same reason. The rotation does not depend on the
// loop's state, so the core runs it in the idle cycles of the step's
// serial dependency chain, where a separate pass would cost its own time.
[[gnu::flatten]] void CostasLoop::track(dsp::cspan in, const PhaseRamp& ramp,
                                        dsp::cspan_mut out) noexcept {
  const std::size_t n_in = std::min(in.size(), out.size());
  const auto step = [&](std::size_t i, dsp::cf x) {
    const dsp::cf r = dsp::simd::sincos(ramp.angle(i));
    // x * r as the finite product: (a*c - b*d, a*d + b*c).
    out[i] = process(dsp::cf{x.real() * r.real() - x.imag() * r.imag(),
                             x.real() * r.imag() + x.imag() * r.real()});
  };
  for (std::size_t i = 0; i < n_in; ++i) step(i, in[i]);
  for (std::size_t i = n_in; i < out.size(); ++i) step(i, dsp::cf{0.0F, 0.0F});
}

void CostasLoop::reset() noexcept {
  phase_ = 0.0F;
  freq_ = 0.0F;
  avg_power_ = 0.0F;
}

}  // namespace bhss::sync
