#include "dsp/fir.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <numbers>
#include <utility>

#include "core/contracts.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/utils.hpp"
#include "dsp/window.hpp"

namespace bhss::dsp {

// ------------------------------------------------------------ ConvolverPlan

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::shared_ptr<const ConvolverPlan> ConvolverPlan::make(cvec taps) {
  BHSS_REQUIRE(!taps.empty(), "ConvolverPlan: taps must be non-empty");
  BHSS_REQUIRE(all_finite(cspan{taps}), "ConvolverPlan: taps must be finite");
  const std::size_t fft_size = next_pow2(std::max<std::size_t>(4 * taps.size(), 1024));
  const std::size_t block_size = fft_size - taps.size() + 1;
  auto plan = std::make_shared<ConvolverPlan>(ConvolverPlan{
      .taps = std::move(taps),
      .fft_size = fft_size,
      .block_size = block_size,
      .fft = Fft(fft_size),
      .taps_spectrum = {},
  });
  plan->taps_spectrum = plan->fft.forward_copy(plan->taps);
  return plan;
}

void ConvolverPlan::filter(cspan x, std::size_t skip, cspan_mut out) const {
  if (out.empty()) return;
  // Per-thread block scratch, the idiom of welch_psd's segment scratch:
  // every element is overwritten before the FFT reads it.
  thread_local cvec scratch;
  // BHSS_ANALYZE_SUPPRESS(h1-hot-path-purity): grow-once per-thread scratch; allocation-free once this thread has run an FFT of this size (see header contract)
  if (scratch.size() < fft_size) scratch.resize(fft_size);
  const cspan_mut block{scratch.data(), fft_size};
  // Overlap-save: the block at pos holds x[pos - overlap, pos + block_size)
  // (zeros before the start and past the end of x) and yields
  // y[pos, pos + block_size).
  const std::size_t overlap = taps.size() - 1;
  const std::size_t end = skip + out.size();
  for (std::size_t pos = skip - skip % block_size; pos < end; pos += block_size) {
    const std::size_t lead = overlap > pos ? overlap - pos : 0;
    const std::size_t first = std::min(pos + lead - overlap, x.size());
    const std::size_t count = std::min(fft_size - lead, x.size() - first);
    std::fill_n(block.begin(), lead, cf{0.0F, 0.0F});
    std::copy_n(x.begin() + static_cast<std::ptrdiff_t>(first), count,
                block.begin() + static_cast<std::ptrdiff_t>(lead));
    std::fill(block.begin() + static_cast<std::ptrdiff_t>(lead + count), block.end(),
              cf{0.0F, 0.0F});
    fft.forward(block);
    simd::cmul_inplace(block.data(), taps_spectrum.data(), fft_size);
    fft.inverse(block);
    const std::size_t lo = std::max(pos, skip);
    const std::size_t hi = std::min(pos + block_size, end);
    std::copy(block.begin() + static_cast<std::ptrdiff_t>(overlap + lo - pos),
              block.begin() + static_cast<std::ptrdiff_t>(overlap + hi - pos),
              out.begin() + static_cast<std::ptrdiff_t>(lo - skip));
  }
}

// ------------------------------------------------------------ filter design

namespace {

/// Window of every low-pass design: the receiver's bank and the noise
/// jammer's shaper.
constexpr Window kLowpassWindow = Window::blackman;

/// Stop-band attenuation lowpass_num_taps sizes a low-pass for (paper:
/// 70 dB).
constexpr double kLowpassAttenDb = 70.0;
static_assert(kLowpassAttenDb >= 9.0, "Kaiser's estimate holds from 9 dB up");

/// Longest low-pass lowpass_num_taps returns (the paper's receiver went
/// to 3181 taps); odd, so a clamped design keeps an integer group delay.
constexpr std::size_t kMaxLowpassTaps = 1025;
static_assert(kMaxLowpassTaps % 2 == 1 && kMaxLowpassTaps >= 3, "odd and >= 3");

/// PSD floor clamp of eq. (3), relative to the PSD's maximum.
constexpr double kExcisionFloorRel = 1e-6;

}  // namespace

fvec design_lowpass(std::size_t num_taps, double cutoff) {
  BHSS_REQUIRE(num_taps > 0, "design_lowpass: num_taps must be > 0");
  BHSS_REQUIRE(cutoff > 0.0 && cutoff < 0.5, "design_lowpass: cutoff must be in (0, 0.5)");
  const fvec w = make_window(kLowpassWindow, num_taps);
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

std::shared_ptr<const ConvolverPlan> lowpass_plan(std::size_t num_taps, double cutoff) {
  using Key = std::pair<std::size_t, std::uint64_t>;
  static std::mutex mutex;
  static std::map<Key, std::shared_ptr<const ConvolverPlan>> memo;
  const std::scoped_lock lock(mutex);
  auto& slot = memo[Key{num_taps, std::bit_cast<std::uint64_t>(cutoff)}];
  if (!slot) slot = ConvolverPlan::make(to_complex(design_lowpass(num_taps, cutoff)));
  return slot;
}

std::size_t lowpass_num_taps(double transition_width) {
  BHSS_REQUIRE(transition_width > 0.0 && transition_width < 0.5,
               "lowpass_num_taps: transition width must be in (0, 0.5)");
  // Kaiser's empirical formula: N ~= (A - 7.95) / (2.285 * 2*pi*df).
  const double n =
      (kLowpassAttenDb - 7.95) / (2.285 * 2.0 * std::numbers::pi * transition_width);
  auto taps = static_cast<std::size_t>(std::ceil(n)) + 1;
  if (taps % 2 == 0) ++taps;
  return std::clamp<std::size_t>(taps, 3, kMaxLowpassTaps);
}

cvec design_excision_whitening(fspan psd, double passband_frac) {
  const std::size_t k_taps = psd.size();
  BHSS_REQUIRE(Fft::valid_size(k_taps),
               "design_excision_whitening: psd size must be a power of two");
  BHSS_REQUIRE(passband_frac > 0.0 && passband_frac <= 1.0,
               "design_excision_whitening: passband_frac must be in (0, 1]");
  BHSS_REQUIRE(all_finite(psd), "design_excision_whitening: psd must be finite");
  const float max_p = *std::max_element(psd.begin(), psd.end());
  BHSS_REQUIRE(max_p > 0.0F, "design_excision_whitening: psd is all zero");
  const double floor = static_cast<double>(max_p) * kExcisionFloorRel;

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

fvec power_response(cspan taps, std::size_t nfft) {
  const cvec h = Fft(nfft).forward_copy(taps);
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
