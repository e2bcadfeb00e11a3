#include "sync/correlate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"
#include "dsp/simd/libm.hpp"
#include "dsp/simd/simd.hpp"

namespace bhss::sync {

HalfCorrelations correlate_halves(dsp::cspan x, dsp::cspan ref, std::size_t lag) {
  BHSS_REQUIRE(lag <= x.size() && ref.size() <= x.size() - lag,
               "correlate_halves: reference does not fit at this lag");
  const std::size_t half = ref.size() / 2;
  const dsp::cf* xa = x.data() + lag;
  const dsp::cf* xb = xa + half;
  const dsp::cf* rb = ref.data() + half;
  HalfCorrelations c;
  for (std::size_t k = 0; k < half; ++k) {
    c.first += xa[k] * std::conj(ref[k]);
    c.second += xb[k] * std::conj(rb[k]);
  }
  // An odd reference leaves the second half one term longer.
  if (2 * half < ref.size()) c.second += xb[half] * std::conj(rb[half]);
  return c;
}

CorrelationPeak correlate_search(dsp::cspan x, dsp::cspan ref, std::size_t max_lag) {
  BHSS_REQUIRE(!ref.empty() && x.size() >= ref.size(),
               "correlate_search: reference longer than signal");
  const std::size_t last_lag = std::min(max_lag, x.size() - ref.size());

  // The reference's energy and the first window's, the start of the
  // running window energy for normalisation: dsp::energy's two sums,
  // walked together.
  double ref_energy = 0.0;
  double win_energy = 0.0;
  for (std::size_t k = 0; k < ref.size(); ++k) {
    ref_energy += static_cast<double>(std::norm(ref[k]));
    win_energy += static_cast<double>(std::norm(x[k]));
  }

  CorrelationPeak best;
  double norm_sum = 0.0;
  // Correlations are computed a chunk of lags at a time through the
  // vectorized kernel (stack scratch, no allocation); the normalisation
  // and peak selection walk stays sequential because the window energy is
  // a running recurrence.
  constexpr std::size_t kChunk = 32;
  dsp::cf corr[kChunk];
  for (std::size_t lag0 = 0; lag0 <= last_lag; lag0 += kChunk) {
    const std::size_t n_lags = std::min(kChunk, last_lag - lag0 + 1);
    dsp::simd::correlate_lags(x.data() + lag0, ref.data(), ref.size(), corr, n_lags);
    for (std::size_t j = 0; j < n_lags; ++j) {
      const std::size_t lag = lag0 + j;
      const dsp::cf c = corr[j];
      const double denom = std::sqrt(std::max(ref_energy * win_energy, 1e-30));
      const float norm = static_cast<float>(static_cast<double>(dsp::simd::abs(c)) / denom);
      norm_sum += static_cast<double>(norm);
      if (norm > best.normalized) {
        best.normalized = norm;
        best.value = c;
        best.offset = lag;
      }
      if (lag + ref.size() < x.size()) {
        win_energy += static_cast<double>(std::norm(x[lag + ref.size()])) -
                      static_cast<double>(std::norm(x[lag]));
        win_energy = std::max(win_energy, 0.0);
      }
    }
  }
  best.mean_normalized =
      static_cast<float>(norm_sum / static_cast<double>(last_lag + 1));
  return best;
}

}  // namespace bhss::sync
