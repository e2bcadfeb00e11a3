#include "sync/preamble_sync.hpp"

#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/contracts.hpp"
#include "dsp/simd/libm.hpp"
#include "dsp/utils.hpp"
#include "sync/correlate.hpp"

namespace bhss::sync {
namespace {

/// Blocks refine() regresses the residual phase over.
constexpr std::size_t kRefineBlocks = 8;
static_assert(kRefineBlocks >= 2, "a regression needs two blocks");

}  // namespace

PreambleSync::PreambleSync(dsp::cvec reference) : ref_(std::move(reference)) {
  BHSS_REQUIRE(ref_.size() >= 8, "PreambleSync: reference too short");
}

std::optional<SyncEstimate> PreambleSync::acquire(dsp::cspan x, std::size_t max_lag,
                                                  float threshold,
                                                  obs::TraceSink* trace) const {
  BHSS_TRACE_SCOPE(trace, obs::TraceScopeId::preamble_acquire);
  if (x.size() < ref_.size()) return std::nullopt;
  const CorrelationPeak peak = correlate_search(x, ref_, max_lag);
  if (peak.normalized < threshold) return std::nullopt;

  SyncEstimate est;
  est.frame_start = peak.offset;
  est.quality = peak.normalized;
  est.margin = peak.mean_normalized > 0.0F ? peak.normalized / peak.mean_normalized : 0.0F;

  // CFO from the phase drift between the two preamble halves: each half
  // correlation picks up the average phase over its span; the difference
  // divided by the half-length gives rad/sample.
  const std::size_t half = ref_.size() / 2;
  const auto [c1, c2] = correlate_halves(x, ref_, peak.offset);
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
                                  obs::TraceSink* trace) const {
  BHSS_TRACE_SCOPE(trace, obs::TraceScopeId::preamble_acquire);
  const std::size_t block = ref_.size() / kRefineBlocks;
  if (block < 8 || coarse.frame_start + ref_.size() > x.size()) return coarse;

  // Weighted least squares of residual phase vs block centre.
  double sw = 0.0;
  double swn = 0.0;
  double swnn = 0.0;
  double swp = 0.0;
  double swnp = 0.0;
  // The blocks' data-aided correlations, each summed in sample order, all
  // eight walked together so that no sum waits on another's adds.
  std::array<dsp::cf, kRefineBlocks> sums{};
  const dsp::cf* xs = x.data() + coarse.frame_start;
  for (std::size_t i = 0; i < block; ++i) {
    for (std::size_t b = 0; b < kRefineBlocks; ++b) {
      sums[b] += xs[b * block + i] * std::conj(ref_[b * block + i]);
    }
  }
  for (std::size_t b = 0; b < kRefineBlocks; ++b) {
    const std::size_t begin = b * block;
    const dsp::cf acc = sums[b];
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
