#include "sync/correlate.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"
#include "dsp/simd/libm.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/utils.hpp"

namespace bhss::sync {

dsp::cf correlate_at(dsp::cspan x, dsp::cspan ref, std::size_t lag) {
  BHSS_REQUIRE(lag + ref.size() <= x.size(), "correlate_at: reference does not fit at this lag");
  dsp::cf acc{0.0F, 0.0F};
  for (std::size_t k = 0; k < ref.size(); ++k) acc += x[lag + k] * std::conj(ref[k]);
  return acc;
}

CorrelationPeak correlate_search(dsp::cspan x, dsp::cspan ref, std::size_t max_lag) {
  BHSS_REQUIRE(!ref.empty() && x.size() >= ref.size(),
               "correlate_search: reference longer than signal");
  const std::size_t last_lag = std::min(max_lag, x.size() - ref.size());
  const double ref_energy = dsp::energy(ref);

  // Running window energy for normalisation.
  double win_energy = dsp::energy(x.first(ref.size()));

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
