#pragma once

/// @file theory.hpp
/// Closed-form performance model of BHSS (paper §5 and appendix):
///  * correlator-output SNR with and without suppression filters
///    (eqs. (6), (7)), numerically from taps + jammer autocorrelation,
///  * the SNR improvement factor gamma (eq. (8)) and its ideal-filter
///    upper bounds for narrow-band / wide-band jammers (eqs. (11), (12)),
///  * bit error rate (eq. (16)), packet error rate and throughput
///    (eqs. (17), (18)),
///  * a hop-averaged BHSS model reproducing Figures 9, 10 and 11.

#include <cstddef>
#include <vector>

#include "dsp/types.hpp"

namespace bhss::core::theory {

/// Eq. (7): correlator output SNR with no suppression filter.
/// @param processing_gain  L, linear (chips per symbol/bit)
/// @param jammer_power     rho_j(0), total interference power per chip
/// @param noise_var        sigma_n^2, white noise variance per chip
[[nodiscard]] double output_snr_unfiltered(double processing_gain, double jammer_power,
                                           double noise_var);

/// Eq. (6): correlator output SNR behind a suppression filter with taps
/// h(k) and jammer autocorrelation rho_j(k) (rho_j[0] = total power;
/// lags beyond rho_j.size()-1 are treated as zero).
[[nodiscard]] double output_snr_filtered(double processing_gain, dsp::cspan taps,
                                         dsp::fspan rho_j, double noise_var);

/// Eq. (8): gamma = SNR_filtered / SNR_unfiltered, from arbitrary taps.
/// Independent of the processing gain.
[[nodiscard]] double snr_improvement_numeric(dsp::cspan taps, dsp::fspan rho_j,
                                             double noise_var);

/// Eqs. (11)/(12): ideal-filter upper bound on gamma as a function of the
/// bandwidth ratio Bp/Bj.
///  * Bp/Bj >= 1 (narrow-band jammer, excision filter), eq. (11) — clamped
///    to 1 when the jammer is too close in bandwidth (eq. (10));
///  * Bp/Bj < 1 (wide-band jammer, low-pass filter), eq. (12).
[[nodiscard]] double snr_improvement_bound(double bp_over_bj, double jammer_power,
                                           double noise_var);

/// Eq. (16): QPSK/BPSK bit error probability from the correlator SNR,
/// Pb = 0.5 * erfc(sqrt(SNR / 2)).
[[nodiscard]] double ber_from_snr(double snr);

/// Eq. (18): packet error probability for N i.i.d. bits.
[[nodiscard]] double packet_error_rate(double ber, std::size_t n_bits);

/// Eq. (17): throughput T = R * (1 - Pp); returned normalised (R = 1).
[[nodiscard]] double normalized_throughput(double ber, std::size_t n_bits);

/// Hop-averaged analytical BHSS link model (Figures 9-11).
/// Bandwidths are normalised to max(Bp) = 1; the per-chip SJR and the
/// per-chip noise variance are constant across hops (paper §5.3).
class BhssModel {
 public:
  /// @param hop_bandwidths  normalised hop bandwidths (max must be 1.0)
  /// @param hop_probs       draw probabilities, each >= 0 (normalised
  ///                        internally)
  /// @param processing_gain L, linear, > 0 (paper: 100 = 20 dB)
  /// @param jammer_power    rho_j(0) per chip, >= 0 (paper: SJR = -20 dB
  ///                        -> 100)
  BhssModel(std::vector<double> hop_bandwidths, std::vector<double> hop_probs,
            double processing_gain, double jammer_power);

  /// Log-spaced hop set spanning `range` (e.g. 100 for Fig. 9) with
  /// `levels` levels and uniform draw probabilities.
  [[nodiscard]] static BhssModel log_uniform(double range, std::size_t levels,
                                             double processing_gain, double jammer_power);

  /// Map Eb/N0 (linear) to the per-chip noise variance:
  /// sigma_n^2 = L / (2 Eb/N0), so that without jamming
  /// Pb = 0.5 erfc(sqrt(Eb/N0)) — the matched-filter QPSK bound.
  [[nodiscard]] double noise_var_for_ebno(double ebno_linear) const;

  /// Ideal-filter output SNR for one hop of normalised bandwidth `alpha`
  /// against a jammer of normalised bandwidth `bj`.
  [[nodiscard]] double snr_at_hop(double alpha, double bj, double noise_var) const;

  /// Expected SNR improvement factor over the hop distribution against a
  /// fixed jammer bandwidth: E_p[gamma(alpha/bj)].
  [[nodiscard]] double expected_gamma(double bj, double noise_var) const;

  /// BER against a fixed-bandwidth jammer (Fig. 9 curves). Following the
  /// paper's method, the BER is evaluated at the hop-expected output SNR
  /// (gamma averaged over the hop distribution, then one Q-function) —
  /// this is what lets Fig. 9 reach 1e-10 even though individual matched
  /// hops would be error-prone. See ber_fixed_jammer_hop_averaged() for
  /// the uncoded per-hop alternative.
  [[nodiscard]] double ber_fixed_jammer(double bj, double ebno_linear) const;

  /// Per-hop-averaged BER: E_p[Pb(SNR(alpha))] — what an uncoded system
  /// without interleaving across hops actually experiences (our
  /// sample-domain link shows this behaviour). More pessimistic: the
  /// worst hop's errors floor the average.
  [[nodiscard]] double ber_fixed_jammer_hop_averaged(double bj, double ebno_linear) const;

  /// BER when the jammer hops uniformly over the same bandwidth set
  /// ("Bj = random" curve of Fig. 9), evaluated at the expected gamma over
  /// both hop draws.
  [[nodiscard]] double ber_random_jammer(double ebno_linear) const;

  /// DSSS/FHSS baseline: jammer matched to the (fixed) signal bandwidth,
  /// no pre-despreading filter, eq. (7). Under equal spectral occupancy
  /// FHSS has the same jamming resistance as DSSS (§5.3), so this one
  /// curve serves both. `processing_gain_override` (0 = the model's L)
  /// lets the caller model the rate-equalised DSSS of Fig. 11
  /// (L = 25.4 dB).
  [[nodiscard]] double ber_dsss(double ebno_linear,
                                double processing_gain_override = 0.0) const;

  /// Fig. 11: normalised throughput against a fixed jammer. Hops carry
  /// equal symbol counts, so the delivered rate per hop scales with its
  /// bandwidth: T = sum p_k a_k (1 - Pp_k) / sum p_k a_k.
  [[nodiscard]] double throughput_fixed_jammer(double bj, double ebno_linear,
                                               std::size_t n_bits) const;

  /// Fig. 11: throughput against the uniformly hopping jammer.
  [[nodiscard]] double throughput_random_jammer(double ebno_linear, std::size_t n_bits) const;

  /// Fig. 11 baseline: DSSS/FHSS throughput at the rate-equalised
  /// processing gain.
  [[nodiscard]] double throughput_dsss(double ebno_linear, std::size_t n_bits) const;

  /// Processing gain a fixed-bandwidth DSSS needs to match this model's
  /// data rate in the same spectrum: L_DSSS = L * max(B) / E_p[B]
  /// (paper: 25.4 dB for L = 20 dB and hop range 100).
  [[nodiscard]] double dsss_equivalent_processing_gain() const;

  [[nodiscard]] const std::vector<double>& hop_bandwidths() const noexcept { return bw_; }
  [[nodiscard]] const std::vector<double>& hop_probs() const noexcept { return probs_; }
  [[nodiscard]] double processing_gain() const noexcept { return l_; }
  [[nodiscard]] double jammer_power() const noexcept { return rho_; }

 private:
  std::vector<double> bw_;
  std::vector<double> probs_;
  double l_;
  double rho_;
};

}  // namespace bhss::core::theory
