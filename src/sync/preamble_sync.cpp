#include "sync/preamble_sync.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/contracts.hpp"
#include "dsp/simd/libm.hpp"
#include "dsp/utils.hpp"
#include "sync/correlate.hpp"

namespace bhss::sync {

PreambleSync::PreambleSync(dsp::cvec reference, float threshold)
    : ref_(std::move(reference)), threshold_(threshold) {
  BHSS_REQUIRE(ref_.size() >= 8, "PreambleSync: reference too short");
}

std::optional<SyncEstimate> PreambleSync::acquire(dsp::cspan x, std::size_t max_lag,
                                                  std::optional<float> threshold,
                                                  obs::TraceSink* trace) const {
  BHSS_TRACE_SCOPE(trace, obs::TraceScopeId::preamble_acquire);
  if (x.size() < ref_.size()) return std::nullopt;
  const CorrelationPeak peak = correlate_search(x, ref_, max_lag);
  if (peak.normalized < threshold.value_or(threshold_)) return std::nullopt;

  SyncEstimate est;
  est.frame_start = peak.offset;
  est.quality = peak.normalized;
  est.margin = peak.mean_normalized > 0.0F ? peak.normalized / peak.mean_normalized : 0.0F;

  // CFO from the phase drift between the two preamble halves: each half
  // correlation picks up the average phase over its span; the difference
  // divided by the half-length gives rad/sample.
  const std::size_t half = ref_.size() / 2;
  const dsp::cf c1 = correlate_at(x, dsp::cspan{ref_}.first(half), peak.offset);
  const dsp::cf c2 = correlate_at(x, dsp::cspan{ref_}.subspan(half), peak.offset + half);
  if (std::abs(c1) > 0.0F && std::abs(c2) > 0.0F) {
    const float dphi = std::arg(c2 * std::conj(c1));
    est.cfo = dphi / static_cast<float>(half);
  }

  // Phase at frame start: the full correlation accumulates the average
  // phase (phase + cfo * mid-span); back out the CFO contribution.
  const float mid = static_cast<float>(ref_.size() - 1) / 2.0F;
  est.phase = std::arg(peak.value) - est.cfo * mid;
  return est;
}

SyncEstimate PreambleSync::refine(dsp::cspan x, const SyncEstimate& coarse,
                                  std::size_t n_blocks, obs::TraceSink* trace) const {
  BHSS_TRACE_SCOPE(trace, obs::TraceScopeId::preamble_acquire);
  if (n_blocks < 2) return coarse;
  const std::size_t block = ref_.size() / n_blocks;
  if (block < 8 || coarse.frame_start + ref_.size() > x.size()) return coarse;

  // Weighted least squares of residual phase vs block centre.
  double sw = 0.0;
  double swn = 0.0;
  double swnn = 0.0;
  double swp = 0.0;
  double swnp = 0.0;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t begin = b * block;
    dsp::cf acc{0.0F, 0.0F};
    for (std::size_t i = begin; i < begin + block; ++i) {
      acc += x[coarse.frame_start + i] * std::conj(ref_[i]);
    }
    const float mag = std::abs(acc);
    if (mag <= 0.0F) continue;
    const double centre = static_cast<double>(begin) + static_cast<double>(block - 1) / 2.0;
    // Residual phase relative to the coarse model (small, no wrapping).
    const double predicted =
        static_cast<double>(coarse.phase) + static_cast<double>(coarse.cfo) * centre;
    const double residual =
        std::arg(acc * dsp::simd::sincos(static_cast<float>(-predicted)));
    const double w = mag;  // stronger blocks (less jammed) weigh more
    sw += w;
    swn += w * centre;
    swnn += w * centre * centre;
    swp += w * residual;
    swnp += w * centre * residual;
  }
  const double det = sw * swnn - swn * swn;
  if (sw <= 0.0 || std::abs(det) < 1e-9) return coarse;
  const double slope = (sw * swnp - swn * swp) / det;
  const double intercept = (swnn * swp - swn * swnp) / det;

  SyncEstimate refined = coarse;
  refined.phase = coarse.phase + static_cast<float>(intercept);
  refined.cfo = coarse.cfo + static_cast<float>(slope);
  return refined;
}

void PreambleSync::derotate(dsp::cspan_mut x, const SyncEstimate& est) noexcept {
  dsp::rotate(x, [&est](std::size_t n) {
    const float dn = static_cast<float>(n) - static_cast<float>(est.frame_start);
    return -(est.phase + est.cfo * dn);
  });
}

}  // namespace bhss::sync
