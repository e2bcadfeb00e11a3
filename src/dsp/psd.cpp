#include "dsp/psd.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "core/contracts.hpp"
#include "dsp/fft.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/utils.hpp"

namespace bhss::dsp {
namespace {

/// What one (window, size) estimate needs besides the data: the window,
/// its power and the FFT handle.
struct WelchSetup {
  WelchSetup(Window window, std::size_t size)
      : w(make_window(window, size)), w_power(window_power(w)), fft(size) {}
  fvec w;
  double w_power;
  Fft fft;
};

/// Per-thread setup cache: the receiver estimates a PSD per hop with the
/// same few (window, size) combinations, and rebuilding the window costs
/// as much as the FFT it feeds; a cached handle also skips the twiddle
/// tables' lock. Thread-local so the parallel Monte-Carlo
/// workers never contend.
const WelchSetup& cached_setup(Window window, std::size_t size) {
  thread_local std::map<std::pair<int, std::size_t>, WelchSetup> cache;
  return cache.try_emplace({static_cast<int>(window), size}, window, size).first->second;
}

}  // namespace

fvec welch_psd(cspan x, std::size_t fft_size, double overlap, Window window) {
  BHSS_REQUIRE(Fft::valid_size(fft_size),
               "welch_psd: fft_size must be a power of two in [2, Fft::kMaxSize]");
  BHSS_REQUIRE(overlap >= 0.0 && overlap <= 0.95, "welch_psd: overlap must be in [0, 0.95]");
  BHSS_REQUIRE(!x.empty(), "welch_psd: empty input");

  const WelchSetup& setup = cached_setup(window, fft_size);
  const fvec& w = setup.w;
  const auto hop = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(static_cast<double>(fft_size) * (1.0 - overlap))));

  fvec psd(fft_size, 0.0F);
  // Segment scratch, reused across calls on this thread (the transform is
  // in place; every element is overwritten before the FFT reads it).
  thread_local cvec seg;
  seg.resize(fft_size);
  std::size_t n_segments = 0;

  auto accumulate = [&](cspan chunk) {
    const std::size_t full = std::min<std::size_t>(chunk.size(), fft_size);
    simd::window_apply(chunk.data(), w.data(), seg.data(), full);
    for (std::size_t i = full; i < fft_size; ++i) seg[i] = cf{0.0F, 0.0F};
    setup.fft.forward(cspan_mut{seg});
    for (std::size_t i = 0; i < fft_size; ++i) {
      psd[i] += static_cast<float>(std::norm(seg[i]));
    }
    ++n_segments;
  };

  if (x.size() < fft_size) {
    accumulate(x);  // single zero-padded segment
  } else {
    for (std::size_t pos = 0; pos + fft_size <= x.size(); pos += hop) {
      accumulate(x.subspan(pos, fft_size));
    }
  }

  // Normalise: |X_w(k)|^2 / (N * sum w^2) summed over bins equals the mean
  // power of the windowed signal (Parseval), averaged over segments.
  const auto norm = static_cast<float>(
      1.0 / (static_cast<double>(n_segments) * static_cast<double>(fft_size) * setup.w_power));
  for (float& p : psd) p *= norm;
  BHSS_ENSURE(all_finite(fspan{psd}), "welch_psd: produced non-finite PSD bins");
  return psd;
}

fvec bartlett_psd(cspan x, std::size_t fft_size) {
  return welch_psd(x, fft_size, 0.0, Window::rectangular);
}

fvec periodogram(cspan x, std::size_t fft_size) {
  const std::size_t n = std::min<std::size_t>(x.size(), fft_size);
  return welch_psd(x.first(n), fft_size, 0.0, Window::rectangular);
}

double psd_total_power(fspan psd) noexcept {
  double acc = 0.0;
  for (float p : psd) acc += static_cast<double>(p);
  return acc;
}

double occupied_bandwidth(fspan psd, double fraction) {
  const std::size_t n = psd.size();
  BHSS_REQUIRE(n > 0, "occupied_bandwidth: empty psd");
  BHSS_REQUIRE(fraction > 0.0 && fraction <= 1.0, "occupied_bandwidth: fraction must be in (0, 1]");
  const double total = psd_total_power(psd);
  if (total <= 0.0) return 1.0;

  // Grow a symmetric band around DC (bin 0) until it holds `fraction` of
  // the power. Natural FFT order: positive freqs are bins 1..n/2, negative
  // freqs are bins n-1 downward.
  double acc = static_cast<double>(psd[0]);
  std::size_t half_width = 0;  // bins on each side of DC
  const std::size_t max_half = n / 2;
  while (acc < fraction * total && half_width < max_half) {
    ++half_width;
    acc += static_cast<double>(psd[half_width]);
    if (half_width < n - half_width) acc += static_cast<double>(psd[n - half_width]);
  }
  const double bins_used = 1.0 + 2.0 * static_cast<double>(half_width);
  return std::min(1.0, bins_used / static_cast<double>(n));
}

}  // namespace bhss::dsp
