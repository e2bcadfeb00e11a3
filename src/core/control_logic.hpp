#pragma once

/// @file control_logic.hpp
/// The receiver control logic of §4.2 (Fig. 6): estimate the jammer's
/// spectral occupancy from a PSD of the incoming samples, then configure
/// the pre-despreading suppression filter:
///  * jammer wider than the signal  -> low-pass filter (eq. (4)),
///  * jammer narrower than the signal -> whitening excision filter
///    (eq. (3)),
///  * jammer bandwidth close to the signal's, or jammer too weak to
///    matter -> no filter (eq. (10): excising a near-matched band costs
///    more signal than jammer).

#include <bit>
#include <memory>
#include <optional>
#include <vector>

#include "core/bandwidth_set.hpp"
#include "core/filter_design_cache.hpp"
#include "dsp/fir.hpp"
#include "dsp/psd.hpp"
#include "dsp/types.hpp"
#include "obs/link_obs.hpp"

namespace bhss::core {

/// Which PSD estimator the control logic uses (ablation: Welch vs
/// Bartlett vs single periodogram).
enum class PsdMethod { welch, bartlett, periodogram };

/// How the excision filter's magnitude response is derived.
enum class ExcisionStyle {
  /// Literal eq. (3): H(k) = 1/sqrt(P(k)). Optimal for the paper's
  /// chip-rate model where the desired signal's spectrum is flat; on an
  /// oversampled half-sine waveform it also inverts the signal's own
  /// spectral shape, which costs self-noise.
  whitening,
  /// Divide the measured PSD by the known own-signal spectral template
  /// first, then whiten what remains: H = 1/sqrt(max(P/T / median, 1)).
  /// Same notch depth over the jammer, unity response where only the
  /// signal sits — eq. (3)'s intent without the self-noise.
  template_notch,
};

/// The filter the control logic selected for one hop.
struct FilterDecision {
  enum class Kind { none, lowpass, excision };

  Kind kind = Kind::none;

  /// The designed filter: its taps and their shared frequency-domain
  /// convolution plan, null exactly when kind == none. Lets the receiver
  /// apply the filter without re-transforming the taps each hop. Its
  /// group delay is `taps.size() / 2` samples: low-pass tap counts are odd
  /// and excision tap counts are powers of two.
  std::shared_ptr<const dsp::ConvolverPlan> plan;

  // Diagnostics (what the estimator saw):
  double est_jammer_bw_frac = 0.0;  ///< estimated jammer occupancy (frac of Rs)
  double inband_peak_over_median_db = 0.0;
  double oob_to_inband_level_db = -300.0;

  /// The PSD estimate was degenerate (all-zero, non-finite, or a ~zero
  /// in-band median) and the logic fell back to Kind::none rather than
  /// synthesising Inf/NaN taps from eq. (3)'s 1/sqrt(P).
  bool degenerate_psd = false;
};

/// PSD resolution (and excision tap count). The receiver's acquisition
/// window also reaches two of these past the preamble's last lag.
inline constexpr std::size_t kPsdFft = 256;
static_assert(std::has_single_bit(kPsdFft), "kPsdFft must be a power of two");

/// One-sided low-pass cutoff as a multiple of the signal bandwidth
/// fraction. 0.5 clips the half-sine main lobe at the nominal band edge;
/// slightly above trades a little less jammer rejection for much less
/// signal distortion.
inline constexpr double kLpfCutoffFactor = 0.6;

/// Wide-band detection: declare a wide-band jammer when the average
/// out-of-band PSD level exceeds this fraction of the in-band level.
/// Must be small: a strong desired signal inflates the in-band level and
/// masks a wide-band jammer of comparable power. A false positive only
/// applies a low-pass matched to the known signal band, which is
/// harmless.
inline constexpr double kOobLevelRatio = 0.06;

/// Narrow-band detection: declare a narrow-band jammer when the top
/// quartile of template-normalised in-band bins exceeds the bottom
/// quartile by this many dB (clean signals measure ~1-3 dB).
inline constexpr double kPeakOverMedianDb = 5.5;

/// Eq. (10) guard: skip the excision filter when the estimated jammer
/// bandwidth exceeds this fraction of the signal bandwidth.
inline constexpr double kExcisionMatchGuard = 0.7;

/// Configuration of the estimator and the filter design. The decision
/// thresholds above are design constants of the receiver.
struct ControlLogicConfig {
  PsdMethod psd_method = PsdMethod::welch;
  ExcisionStyle excision_style = ExcisionStyle::template_notch;

  /// Capacity of the per-receiver excision design cache (0 disables it).
  /// Only the template_notch style is cacheable: its quantised PSD makes
  /// the taps a pure function of (bw level, jammed-bin mask), so cached
  /// and fresh designs are bit-identical. See filter_design_cache.hpp.
  std::size_t design_cache_capacity = 64;
};

/// Stateless-per-call filter selector with precomputed low-pass banks.
class ControlLogic {
 public:
  ControlLogic(ControlLogicConfig config, const BandwidthSet& bands);

  /// Inspect `slice` (raw received samples of one hop) and choose the
  /// suppression filter for a signal at bandwidth level `bw_index`.
  /// `o` (optional) times the choose_filter scope and counts design-cache
  /// hits and misses where the cache answers; the decision is unaffected.
  [[nodiscard]] FilterDecision decide(dsp::cspan slice, std::size_t bw_index,
                                      const obs::LinkObs& o = {}) const;

  /// Force a specific filter kind (used by ablation benches):
  /// lowpass from the bank, or excision from the measured PSD.
  [[nodiscard]] FilterDecision force_lowpass(std::size_t bw_index) const;
  [[nodiscard]] FilterDecision force_excision(dsp::cspan slice, std::size_t bw_index,
                                              const obs::LinkObs& o = {}) const;

  /// The excision design cache and its lifetime hit/miss counts.
  [[nodiscard]] const FilterDesignCache& design_cache() const noexcept { return design_cache_; }

  /// One-sided low-pass cutoff (cycles/sample) used for a bandwidth level.
  [[nodiscard]] double lpf_cutoff_frac(std::size_t bw_index) const;

 private:
  [[nodiscard]] dsp::fvec estimate_psd(dsp::cspan slice, std::size_t fft_size) const;

  /// force_excision without its timing scope, so that decide() does not
  /// time the design twice, from the slice's PSD at design_fft(bw_index).
  [[nodiscard]] FilterDecision design_excision(const dsp::fvec& raw_psd, std::size_t bw_index,
                                               const obs::LinkObs& o) const;

  /// FFT size for jammer *detection*: large enough that the signal band
  /// of the given level spans a useful number of bins (narrow hops need
  /// fine resolution), yet small enough that the slice still yields >= 8
  /// averaged Welch segments (otherwise estimator noise mimics a
  /// narrow-band jammer).
  [[nodiscard]] std::size_t detection_fft(std::size_t slice_len, std::size_t bw_index) const;

  /// FFT size (= tap count) for the excision design at a level: at least
  /// kPsdFft, more for narrow bands so the notch resolution stays a small
  /// fraction of the signal bandwidth.
  [[nodiscard]] std::size_t design_fft(std::size_t bw_index) const;

  ControlLogicConfig config_;
  BandwidthSet bands_;
  /// The low-pass bank, one plan per bandwidth level, taps included (the
  /// bank is fixed, so it never churns the design cache).
  std::vector<std::shared_ptr<const dsp::ConvolverPlan>> lpf_plan_;
  /// excision_template(design_fft(i), sps(i)) for each level i.
  std::vector<std::shared_ptr<const dsp::fvec>> template_;
  /// Excision design cache; mutable because `decide` is logically const
  /// (the cache changes which work runs, never which decision comes out).
  mutable FilterDesignCache design_cache_;
};

/// Analytic power spectral density of half-sine O-QPSK (MSK-shaped),
/// normalised to 1 at DC. @param f_norm frequency in cycles/sample,
/// @param sps chip duration in samples.
[[nodiscard]] double msk_psd_shape(double f_norm, double sps) noexcept;

/// The own-signal template the template_notch excision design divides an
/// n-bin PSD (natural FFT order) by: float(max(msk_psd_shape(f_k, sps),
/// 1e-3)) at bin k's frequency f_k in [-0.5, 0.5). Built once per process
/// for each (n, sps): a mutex-guarded memo, like dsp::lowpass_plan, hands
/// every later call the same immutable table, and each ControlLogic
/// fetches its levels' tables at construction.
[[nodiscard]] std::shared_ptr<const dsp::fvec> excision_template(std::size_t n, double sps);

}  // namespace bhss::core
