#include "dsp/fir.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/contracts.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/utils.hpp"

namespace bhss::dsp {

// ---------------------------------------------------------------- FirFilter

FirFilter::FirFilter(cvec taps) : taps_(std::move(taps)), head_(0) {
  BHSS_REQUIRE(!taps_.empty(), "FirFilter: taps must be non-empty");
  BHSS_REQUIRE(all_finite(cspan{taps_}), "FirFilter: taps must be finite");
  history_.assign(2 * taps_.size(), cf{0.0F, 0.0F});
}

FirFilter::FirFilter(fspan real_taps) : FirFilter(to_complex(real_taps)) {}

void FirFilter::reset() noexcept {
  std::fill(history_.begin(), history_.end(), cf{0.0F, 0.0F});
  head_ = 0;
}

cf FirFilter::process(cf in) noexcept {
  const std::size_t n = taps_.size();
  history_[head_] = in;
  history_[head_ + n] = in;
  // Sample x[t-k] lives at slot head_ + n - k of the doubled history:
  // a linear, branch-free walk over [head_ + 1, head_ + n].
  const cf* hist = history_.data() + head_ + n;
  const cf* taps = taps_.data();
  cf acc{0.0F, 0.0F};
  for (std::size_t k = 0; k < n; ++k) {
    acc += taps[k] * *(hist - static_cast<std::ptrdiff_t>(k));
  }
  head_ = (head_ + 1 == n) ? 0 : head_ + 1;
  return acc;
}

cvec FirFilter::process(cspan in) {
  cvec out(in.size());
  if (in.empty()) return out;
  // Block path: same arithmetic and accumulation order as the per-sample
  // overload, but laid out for the vectorized block kernel. At entry the
  // previous n-1 samples sit contiguously, oldest first, at
  // history_[head_+1 .. head_+n-1]; copying them in front of the input
  // gives the kernel one flat buffer with no wrap logic.
  const std::size_t n = taps_.size();
  ext_.resize(n - 1 + in.size());
  std::copy_n(history_.data() + head_ + 1, n - 1, ext_.begin());
  std::copy(in.begin(), in.end(), ext_.begin() + static_cast<std::ptrdiff_t>(n - 1));
  simd::fir_filter_block(taps_.data(), n, ext_.data(), out.data(), in.size());
  // Rebuild the delay line: the last n samples of ext_ are the new
  // history in ascending time order. With head_ = 0 the next per-sample
  // call reads x[t-k] from slot n-k, so slot i must hold tail[i] (and its
  // double at i+n keeps the doubled-history invariant for later heads).
  const cf* tail = ext_.data() + ext_.size() - n;
  for (std::size_t i = 0; i < n; ++i) {
    history_[i] = tail[i];
    history_[i + n] = tail[i];
  }
  head_ = 0;
  return out;
}

// ------------------------------------------------------------- FftConvolver

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::shared_ptr<const ConvolverPlan> ConvolverPlan::make(cspan taps) {
  BHSS_REQUIRE(!taps.empty(), "ConvolverPlan: taps must be non-empty");
  BHSS_REQUIRE(all_finite(taps), "ConvolverPlan: taps must be finite");
  const std::size_t fft_size = next_pow2(std::max<std::size_t>(4 * taps.size(), 1024));
  auto plan = std::make_shared<ConvolverPlan>(ConvolverPlan{
      .num_taps = taps.size(),
      .fft_size = fft_size,
      .block_size = fft_size - taps.size() + 1,
      .fft = Fft(fft_size),
      .taps_spectrum = {},
  });
  plan->taps_spectrum = plan->fft.forward_copy(taps);
  return plan;
}

FftConvolver::FftConvolver(cspan taps) : FftConvolver(ConvolverPlan::make(taps)) {}

FftConvolver::FftConvolver(std::shared_ptr<const ConvolverPlan> plan)
    : plan_(std::move(plan)), work_(plan_->fft_size) {
  BHSS_REQUIRE(plan_ != nullptr, "FftConvolver: plan must be non-null");
}

cvec FftConvolver::filter(cspan x) {
  cvec out;
  filter(x, out);
  return out;
}

void FftConvolver::filter(cspan x, cvec& out) {
  // BHSS_ANALYZE_SUPPRESS(h1-hot-path-purity): resize to the documented output length; allocation-free once the caller's buffer has capacity (see header contract)
  out.resize(x.size());
  cvec& block = work_;
  const std::size_t fft_size = plan_->fft_size;
  const std::size_t block_size = plan_->block_size;
  // Overlap-save: each iteration consumes block_size fresh samples and
  // reuses the previous num_taps-1 samples (zeros before the start).
  const std::size_t overlap = plan_->num_taps - 1;
  for (std::size_t pos = 0; pos < x.size(); pos += block_size) {
    // block[i] = x[pos + i - overlap], zero where that index falls before
    // the start or past the end of x.
    const std::size_t lead = overlap > pos ? overlap - pos : 0;
    const std::size_t first = pos + lead - overlap;
    const std::size_t count = std::min(fft_size - lead, x.size() - first);
    std::fill_n(block.begin(), lead, cf{0.0F, 0.0F});
    std::copy_n(x.begin() + static_cast<std::ptrdiff_t>(first), count,
                block.begin() + static_cast<std::ptrdiff_t>(lead));
    std::fill(block.begin() + static_cast<std::ptrdiff_t>(lead + count), block.end(),
              cf{0.0F, 0.0F});
    plan_->fft.forward(cspan_mut{block});
    simd::cmul_inplace(block.data(), plan_->taps_spectrum.data(), fft_size);
    plan_->fft.inverse(cspan_mut{block});
    const std::size_t n_valid = std::min(block_size, x.size() - pos);
    for (std::size_t i = 0; i < n_valid; ++i) out[pos + i] = block[overlap + i];
  }
}

// ------------------------------------------------------------ filter design

fvec design_lowpass(std::size_t num_taps, double cutoff, Window window) {
  BHSS_REQUIRE(num_taps > 0, "design_lowpass: num_taps must be > 0");
  BHSS_REQUIRE(cutoff > 0.0 && cutoff < 0.5, "design_lowpass: cutoff must be in (0, 0.5)");
  const fvec w = make_window(window, num_taps);
  fvec taps(num_taps);
  const double mid = (static_cast<double>(num_taps) - 1.0) / 2.0;
  double dc_gain = 0.0;
  for (std::size_t i = 0; i < num_taps; ++i) {
    const double t = static_cast<double>(i) - mid;
    taps[i] = static_cast<float>(2.0 * cutoff * sinc(2.0 * cutoff * t) * static_cast<double>(w[i]));
    dc_gain += static_cast<double>(taps[i]);
  }
  // Normalise to unity DC gain so the passband is undistorted.
  if (dc_gain != 0.0) {
    for (float& t : taps) t = static_cast<float>(static_cast<double>(t) / dc_gain);
  }
  BHSS_ENSURE(all_finite(fspan{taps}), "design_lowpass: produced non-finite taps");
  return taps;
}

std::size_t lowpass_num_taps(double transition_width, double atten_db, std::size_t max_taps) {
  BHSS_REQUIRE(transition_width > 0.0 && transition_width < 0.5,
               "lowpass_num_taps: transition width must be in (0, 0.5)");
  // Kaiser's empirical formula: N ~= (A - 7.95) / (2.285 * 2*pi*df).
  const double a = std::max(atten_db, 9.0);
  const double n = (a - 7.95) / (2.285 * 2.0 * std::numbers::pi * transition_width);
  auto taps = static_cast<std::size_t>(std::ceil(n)) + 1;
  if (taps % 2 == 0) ++taps;
  return std::clamp<std::size_t>(taps, 3, max_taps | 1);
}

cvec design_excision_whitening(fspan psd, double floor_rel, double passband_frac) {
  const std::size_t k_taps = psd.size();
  BHSS_REQUIRE(Fft::valid_size(k_taps),
               "design_excision_whitening: psd size must be a power of two");
  BHSS_REQUIRE(passband_frac > 0.0 && passband_frac <= 1.0,
               "design_excision_whitening: passband_frac must be in (0, 1]");
  BHSS_REQUIRE(all_finite(psd), "design_excision_whitening: psd must be finite");
  const float max_p = *std::max_element(psd.begin(), psd.end());
  BHSS_REQUIRE(max_p > 0.0F, "design_excision_whitening: psd is all zero");
  const double floor = static_cast<double>(max_p) * floor_rel;

  // Frequency of bin k in cycles/sample, wrapped into [-0.5, 0.5).
  auto bin_freq = [k_taps](std::size_t k) {
    const double f = static_cast<double>(k) / static_cast<double>(k_taps);
    return (f < 0.5) ? f : f - 1.0;
  };

  // Desired response, eq. (3): magnitude 1/sqrt(P(k)), linear phase,
  // restricted to the signal passband.
  cvec h_spec(k_taps);
  std::vector<double> mags(k_taps);
  std::vector<double> inband;
  inband.reserve(k_taps);
  for (std::size_t k = 0; k < k_taps; ++k) {
    if (std::abs(bin_freq(k)) <= passband_frac / 2.0) {
      mags[k] = 1.0 / std::sqrt(std::max(static_cast<double>(psd[k]), floor));
      inband.push_back(mags[k]);
    } else {
      mags[k] = 0.0;
    }
  }
  // Normalise so the median in-band magnitude (the "quiet" part of the
  // band) is 1.
  std::nth_element(inband.begin(), inband.begin() + static_cast<std::ptrdiff_t>(inband.size() / 2),
                   inband.end());
  const double median = std::max(inband[inband.size() / 2], 1e-30);
  // Linear phase with an integer group delay of K/2 samples. Eq. (3) uses
  // (K-1)/2, which for even K is a half-sample delay; we shift by one half
  // sample more so the receiver can compensate the delay exactly. The
  // magnitude response is identical. exp(-j 2 pi k (K/2) / K) = (-1)^k.
  for (std::size_t k = 0; k < k_taps; ++k) {
    const double mag = mags[k] / median;
    const double sign = (k % 2 == 0) ? 1.0 : -1.0;
    h_spec[k] = cf(static_cast<float>(mag * sign), 0.0F);
  }

  // Taps are the inverse DFT of the sampled response.
  Fft fft(k_taps);
  fft.inverse(cspan_mut{h_spec});
  BHSS_ENSURE(all_finite(cspan{h_spec}), "design_excision_whitening: produced non-finite taps");
  return h_spec;
}

cvec frequency_response(cspan taps, std::size_t nfft) {
  Fft fft(nfft);
  return fft.forward_copy(taps);
}

fvec power_response(cspan taps, std::size_t nfft) {
  const cvec h = frequency_response(taps, nfft);
  fvec out(nfft);
  for (std::size_t i = 0; i < nfft; ++i) out[i] = std::norm(h[i]);
  return out;
}

cvec to_complex(fspan real_taps) {
  cvec out(real_taps.size());
  for (std::size_t i = 0; i < real_taps.size(); ++i) out[i] = cf{real_taps[i], 0.0F};
  return out;
}

}  // namespace bhss::dsp
