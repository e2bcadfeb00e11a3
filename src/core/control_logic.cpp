#include "core/control_logic.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "core/contracts.hpp"
#include "dsp/utils.hpp"

namespace bhss::core {
namespace {

/// Frequency of bin k (of n) in cycles/sample, wrapped into [-0.5, 0.5).
double bin_freq(std::size_t k, std::size_t n) {
  const double f = static_cast<double>(k) / static_cast<double>(n);
  return (f < 0.5) ? f : f - 1.0;
}

/// Fraction of the nominal signal band used as the flat "core" for
/// narrow-band jammer detection; beyond it the MSK spectrum rolls off and
/// would masquerade as structure.
constexpr double kDetectionCore = 0.7;

/// Segment overlap of the Welch PSD estimate.
constexpr double kWelchOverlap = 0.5;

/// Circular moving-average smoothing of a PSD (frequency-domain averaging
/// complements the time-domain Welch averaging when the slice is short).
dsp::fvec smooth_psd(const dsp::fvec& psd, std::size_t half_width) {
  if (half_width == 0) return psd;
  const std::size_t n = psd.size();
  dsp::fvec out(n, 0.0F);
  const auto width = static_cast<float>(2 * half_width + 1);
  // Term d of bin k reads bin (k - half_width + d) mod n: the index walks
  // up from the window's first bin and wraps by a compare, not a division.
  std::size_t first = (n - half_width % n) % n;
  for (std::size_t k = 0; k < n; ++k) {
    double acc = 0.0;
    std::size_t j = first;
    for (std::size_t d = 0; d <= 2 * half_width; ++d) {
      acc += static_cast<double>(psd[j]);
      if (++j == n) j = 0;
    }
    out[k] = static_cast<float>(acc) / width;
    if (++first == n) first = 0;
  }
  return out;
}

/// Fallback decision for a degenerate PSD estimate: no filter, flagged.
FilterDecision degenerate_fallback() {
  FilterDecision d;
  d.degenerate_psd = true;
  return d;
}

}  // namespace

double msk_psd_shape(double f_norm, double sps) noexcept {
  // G(f) ~ [cos(2 pi f Tc) / (1 - 16 f^2 Tc^2)]^2 with Tc = sps samples.
  const double u = f_norm * sps;
  const double denom = 1.0 - 16.0 * u * u;
  if (std::abs(denom) < 1e-4) {
    constexpr double limit = std::numbers::pi / 4.0;  // L'Hopital at |u| = 1/4
    return limit * limit;
  }
  const double g = std::cos(2.0 * std::numbers::pi * u) / denom;
  return g * g;
}

std::shared_ptr<const dsp::fvec> excision_template(std::size_t n, double sps) {
  using Key = std::pair<std::size_t, std::uint64_t>;
  static std::mutex mutex;
  static std::map<Key, std::shared_ptr<const dsp::fvec>> memo;
  const std::scoped_lock lock(mutex);
  auto& slot = memo[Key{n, std::bit_cast<std::uint64_t>(sps)}];
  if (!slot) {
    dsp::fvec table(n);
    for (std::size_t k = 0; k < n; ++k) {
      table[k] = static_cast<float>(std::max(msk_psd_shape(bin_freq(k, n), sps), 1e-3));
    }
    slot = std::make_shared<const dsp::fvec>(std::move(table));
  }
  return slot;
}

ControlLogic::ControlLogic(ControlLogicConfig config, const BandwidthSet& bands)
    : config_(config), bands_(bands), design_cache_(config.design_cache_capacity) {
  // Pre-compute the low-pass bank, one filter per bandwidth level, exactly
  // as the paper's implementation does ("we pre-compute the taps of all
  // possible low-pass filters in advance", §6.1) — as the
  // frequency-domain convolution plan each one will be applied with,
  // shared with every other ControlLogic of the same configuration.
  lpf_plan_.reserve(bands_.size());
  for (std::size_t i = 0; i < bands_.size(); ++i) {
    const double cutoff = lpf_cutoff_frac(i);
    const double transition = std::max(0.25 * cutoff, 1e-4);
    lpf_plan_.push_back(dsp::lowpass_plan(dsp::lowpass_num_taps(transition), cutoff));
  }
  // The template_notch design's divisor, one table per level, shared the
  // same way.
  template_.reserve(bands_.size());
  for (std::size_t i = 0; i < bands_.size(); ++i) {
    template_.push_back(excision_template(design_fft(i), static_cast<double>(bands_.sps(i))));
  }
}

double ControlLogic::lpf_cutoff_frac(std::size_t bw_index) const {
  // One-sided cutoff slightly beyond the nominal half-bandwidth so the
  // half-sine main lobe is not clipped too aggressively.
  return std::min(0.49, kLpfCutoffFactor * bands_.bandwidth_frac(bw_index));
}

dsp::fvec ControlLogic::estimate_psd(dsp::cspan slice, std::size_t fft_size) const {
  switch (config_.psd_method) {
    case PsdMethod::welch:
      return dsp::welch_psd(slice, fft_size, kWelchOverlap, dsp::Window::hann);
    case PsdMethod::bartlett:
      return dsp::bartlett_psd(slice, fft_size);
    case PsdMethod::periodogram:
      return dsp::periodogram(slice, fft_size);
  }
  return dsp::welch_psd(slice, fft_size, kWelchOverlap, dsp::Window::hann);
}

std::size_t ControlLogic::detection_fft(std::size_t slice_len, std::size_t bw_index) const {
  // Want >= ~24 bins across the signal band (otherwise a jammer occupying
  // a quarter of a narrow band hides inside the median), but keep >= ~8
  // averaged Welch segments so estimator noise cannot mimic a narrow-band
  // jammer peak.
  const std::size_t want = 24 * bands_.sps(bw_index);
  std::size_t fft = 32;
  while (fft * 2 <= 4096 && (fft < want || fft * 2 <= kPsdFft) && fft * 8 <= slice_len) {
    fft *= 2;
  }
  return fft;
}

std::size_t ControlLogic::design_fft(std::size_t bw_index) const {
  // Notch resolution of ~1/32 of the signal bandwidth, capped at 4096 taps
  // (the paper's receiver was capped at order 3181).
  std::size_t fft = kPsdFft;
  while (fft < 32 * bands_.sps(bw_index) && fft < 4096) fft *= 2;
  return fft;
}

FilterDecision ControlLogic::force_lowpass(std::size_t bw_index) const {
  FilterDecision d;
  d.kind = FilterDecision::Kind::lowpass;
  d.plan = lpf_plan_.at(bw_index);
  return d;
}

FilterDecision ControlLogic::force_excision(dsp::cspan slice, std::size_t bw_index,
                                            const obs::LinkObs& o) const {
  BHSS_TRACE_SCOPE(o.sink(), obs::TraceScopeId::choose_filter);
  return design_excision(estimate_psd(slice, design_fft(bw_index)), bw_index, o);
}

FilterDecision ControlLogic::design_excision(const dsp::fvec& raw_psd, std::size_t bw_index,
                                             const obs::LinkObs& o) const {
  const std::size_t n = raw_psd.size();
  dsp::fvec psd = smooth_psd(raw_psd, std::max<std::size_t>(1, n / 512));
  const double passband = std::min(1.0, 2.0 * lpf_cutoff_frac(bw_index));

  // Eq. (3) divides by sqrt(P): a degenerate estimate — every bin zero
  // (an all-zero hop slice, e.g. a front-end dropout), a non-finite bin,
  // or a ~zero in-band median — would synthesise Inf/NaN taps and corrupt
  // the whole frame. Fall back to "no filter" and flag it instead.
  if (!dsp::all_finite(dsp::fspan{psd})) return degenerate_fallback();
  if (*std::max_element(psd.begin(), psd.end()) <= 0.0F) return degenerate_fallback();

  FilterDecision d;
  d.kind = FilterDecision::Kind::excision;

  if (config_.excision_style == ExcisionStyle::template_notch) {
    // Normalise by the own-signal spectral template, then clamp the ratio
    // at its in-band median: bins where only the signal sits become 1
    // (unity filter gain), jammer bins keep their excess and get the full
    // whitening attenuation.
    const dsp::fvec& tmpl = *template_.at(bw_index);
    BHSS_REQUIRE(tmpl.size() == n, "design_excision: PSD size must be design_fft(bw_index)");
    std::vector<float> inband;
    for (std::size_t k = 0; k < n; ++k) {
      psd[k] /= tmpl[k];
      if (std::abs(bin_freq(k, n)) <= passband / 2.0) inband.push_back(psd[k]);
    }
    std::nth_element(inband.begin(),
                     inband.begin() + static_cast<std::ptrdiff_t>(inband.size() / 2),
                     inband.end());
    const float median = std::max(inband[inband.size() / 2], 1e-30F);
    // Hard notch: zero out every bin whose template-normalised level is
    // well above the clean floor, unity elsewhere. This is eq. (11)'s
    // ideal excision filter ("filters out entirely all frequencies
    // occupied by the narrow-band jammer"): whitening-depth notches only
    // push the jammer down to the local *signal* level, and that residual
    // is narrow-band — correlated across chips — which despreading barely
    // attenuates. The signal content in the jammed bins is unrecoverable
    // anyway, so removing it entirely costs only the self-noise the
    // theory already accounts for. Jammer bins are dilated by one to
    // cover estimator leakage skirts.
    std::vector<bool> hot(n, false);
    for (std::size_t k = 0; k < n; ++k) hot[k] = psd[k] > 3.0F * median;
    std::vector<bool> dilated = hot;
    for (std::size_t k = 0; k < n; ++k) {
      if (hot[k]) {
        dilated[k + 1 == n ? 0 : k + 1] = true;
        dilated[k == 0 ? n - 1 : k - 1] = true;
      }
    }
    // The binary verdict above makes the design a pure function of
    // (bandwidth level, dilated mask): look the key up before quantising
    // the PSD — a hit replays bit-identical taps and skips the design FFT
    // and the taps-spectrum transform entirely.
    FilterDesignKey key;
    key.bw_index = bw_index;
    key.n_bins = n;
    key.mask.assign((n + 63) / 64, 0);
    for (std::size_t k = 0; k < n; ++k) {
      if (dilated[k]) key.mask[k / 64] |= std::uint64_t{1} << (k % 64);
    }
    if (auto cached = design_cache_.find(key)) {
      d.plan = std::move(cached);
      if (o) o.add(obs::link_ids().filter_cache_hits);
      return d;
    }

    for (std::size_t k = 0; k < n; ++k) psd[k] = dilated[k] ? 1e12F : 1.0F;
    d.plan = dsp::ConvolverPlan::make(dsp::design_excision_whitening(psd, passband));
    if (design_cache_.capacity() > 0) {
      if (o) o.add(obs::link_ids().filter_cache_misses);
      design_cache_.insert(std::move(key), d.plan);
    }
    return d;
  }

  // Whitening style: the taps depend on the raw (un-quantised) PSD, so no
  // finite key captures them — design fresh every hop, plan included.
  d.plan = dsp::ConvolverPlan::make(dsp::design_excision_whitening(psd, passband));
  return d;
}

FilterDecision ControlLogic::decide(dsp::cspan slice, std::size_t bw_index,
                                    const obs::LinkObs& o) const {
  BHSS_TRACE_SCOPE(o.sink(), obs::TraceScopeId::choose_filter);
  const std::size_t n = detection_fft(slice.size(), bw_index);
  const dsp::fvec psd = estimate_psd(slice, n);
  const double signal_frac = bands_.bandwidth_frac(bw_index);
  const auto sps = static_cast<double>(bands_.sps(bw_index));

  // Validated-decision path: a degenerate estimate (non-finite bins from a
  // corrupted capture, or an all-zero slice) cannot drive eq. (3)/(4) —
  // every statistic below would be 0/0 or Inf. Decline to filter, loudly.
  if (!dsp::all_finite(dsp::fspan{psd})) return degenerate_fallback();

  // Partition bins: nominal signal band vs outside (for the wide-band
  // test), and a flat spectral "core" where the template-normalised PSD of
  // a clean signal is level (for the narrow-band test).
  std::vector<float> core;
  double in_sum = 0.0;
  double out_sum = 0.0;
  std::size_t n_in = 0;
  std::size_t n_out = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double f = std::abs(bin_freq(k, n));
    if (f <= signal_frac / 2.0) {
      in_sum += static_cast<double>(psd[k]);
      ++n_in;
      if (f <= kDetectionCore * signal_frac / 2.0) {
        const auto tmpl = static_cast<float>(std::max(msk_psd_shape(f, sps), 1e-3));
        core.push_back(psd[k] / tmpl);
      }
    } else {
      out_sum += static_cast<double>(psd[k]);
      ++n_out;
    }
  }
  if (n_in == 0 || core.size() < 4) return FilterDecision{};

  const double in_level = in_sum / static_cast<double>(n_in);
  const double out_level = n_out > 0 ? out_sum / static_cast<double>(n_out) : 0.0;

  // All-zero in-band spectrum (dead front-end / deep dropout): none of the
  // level ratios below are meaningful and an excision design would divide
  // by a ~zero median. Reachable from a live all-zero hop slice.
  if (in_level <= 0.0) return degenerate_fallback();

  // Quartile statistic on the template-normalised core: a narrow-band
  // jammer lifts the top bins far above the bottom (clean) bins even when
  // it covers up to ~3/4 of the band — where a median-based peak test
  // would already drown. A matched jammer lifts every bin equally and
  // stays invisible, which is exactly eq. (10)'s "don't filter" case.
  std::vector<float> sorted = core;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t quarter = std::max<std::size_t>(1, sorted.size() / 4);
  double bottom = 0.0;
  double top = 0.0;
  for (std::size_t i = 0; i < quarter; ++i) {
    bottom += static_cast<double>(sorted[i]);
    top += static_cast<double>(sorted[sorted.size() - 1 - i]);
  }
  const double in_floor = std::max(bottom / static_cast<double>(quarter), 1e-30);
  const double in_peak = top / static_cast<double>(quarter);

  // Estimated jammer occupancy: core bins well above the clean floor,
  // rescaled from the core to the full sampling rate.
  std::size_t hot_bins = 0;
  for (float p : core) {
    if (static_cast<double>(p) > std::sqrt(in_floor * in_peak)) ++hot_bins;
  }
  const double est_jam_bw = (static_cast<double>(hot_bins) / static_cast<double>(core.size())) *
                            (kDetectionCore * signal_frac);

  const double peak_over_median_db = dsp::linear_to_db(in_peak / in_floor);

  FilterDecision d;  // none: bandwidths matched or jammer weak, despreading gain suffices
  if (n_out > 0 && out_level > kOobLevelRatio * in_level) {
    // Wide-band jammer: significant energy outside the signal band (the PN
    // spectrum is confined in-band, so out-of-band level is jam + noise).
    d = force_lowpass(bw_index);
  } else if (peak_over_median_db > kPeakOverMedianDb &&
             est_jam_bw <= kExcisionMatchGuard * signal_frac) {
    // Narrow-band jammer: a strong peak inside the signal band. Eq. (10)
    // guard: when the jammer occupies almost the whole signal band,
    // excising it removes the signal too — better not to filter. The
    // design estimates the same PSD again unless its size is this one's,
    // which it is on every paper level once the slice holds eight
    // segments of it.
    const std::size_t n_design = design_fft(bw_index);
    d = n == n_design ? design_excision(psd, bw_index, o)
                      : design_excision(estimate_psd(slice, n_design), bw_index, o);
  }
  d.est_jammer_bw_frac = est_jam_bw;
  d.inband_peak_over_median_db = peak_over_median_db;
  d.oob_to_inband_level_db = dsp::linear_to_db(std::max(out_level, 1e-30) / in_level);
  return d;
}

}  // namespace bhss::core
