#include "core/theory.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

namespace bhss::core::theory {
namespace {

/// Sum over filter self-noise and filtered-noise terms of eqs. (6)/(8).
/// The paper's derivation takes h(0) as the reference (signal-bearing)
/// tap, which holds for the causal prediction-error whitening filters of
/// [7]; for linear-phase designs the signal-bearing tap is the largest
/// one, so we use the max-magnitude tap as the reference and count every
/// other tap as self-noise (time dispersion).
struct TapSums {
  double reference = 0.0;    ///< |h(k0)|^2 of the signal-bearing tap
  double self_noise = 0.0;   ///< sum_{l != k0} |h(l)|^2
  double all_taps = 0.0;     ///< sum_l |h(l)|^2
  double residual_jam = 0.0; ///< sum_l sum_m h(l) h*(m) rho_j(l-m)
};

TapSums tap_sums(dsp::cspan taps, dsp::fspan rho_j) {
  TapSums s;
  const std::size_t k = taps.size();
  std::size_t k0 = 0;
  for (std::size_t l = 0; l < k; ++l) {
    const double h2 = std::norm(taps[l]);
    s.all_taps += h2;
    if (h2 > s.reference) {
      s.reference = h2;
      k0 = l;
    }
  }
  s.self_noise = s.all_taps - static_cast<double>(std::norm(taps[k0]));
  for (std::size_t l = 0; l < k; ++l) {
    for (std::size_t m = 0; m < k; ++m) {
      const std::size_t lag = (l >= m) ? l - m : m - l;
      if (lag >= rho_j.size()) continue;
      // h complex in general; the quadratic form uses Re{h(l) conj(h(m))}.
      s.residual_jam += static_cast<double>((taps[l] * std::conj(taps[m])).real() * rho_j[lag]);
    }
  }
  return s;
}

}  // namespace

double output_snr_unfiltered(double processing_gain, double jammer_power, double noise_var) {
  BHSS_REQUIRE(processing_gain > 0.0, "output_snr: L must be > 0");
  return processing_gain / (jammer_power + noise_var);
}

double output_snr_filtered(double processing_gain, dsp::cspan taps, dsp::fspan rho_j,
                           double noise_var) {
  BHSS_REQUIRE(!taps.empty(), "output_snr_filtered: empty taps");
  BHSS_REQUIRE(!rho_j.empty(), "output_snr_filtered: empty autocorrelation");
  const TapSums s = tap_sums(taps, rho_j);
  BHSS_REQUIRE(s.reference > 0.0, "output_snr_filtered: all-zero taps");
  // Eq. (6), normalised by the reference tap gain so the desired-signal
  // term stays L.
  const double denom =
      (s.self_noise + std::max(s.residual_jam, 0.0) + noise_var * s.all_taps) / s.reference;
  return processing_gain / std::max(denom, 1e-30);
}

double snr_improvement_numeric(dsp::cspan taps, dsp::fspan rho_j, double noise_var) {
  const double with = output_snr_filtered(1.0, taps, rho_j, noise_var);
  const double without =
      output_snr_unfiltered(1.0, rho_j.empty() ? 0.0 : static_cast<double>(rho_j[0]), noise_var);
  return with / without;
}

double snr_improvement_bound(double bp_over_bj, double jammer_power, double noise_var) {
  BHSS_REQUIRE(bp_over_bj > 0.0, "snr_improvement_bound: ratio must be > 0");
  const double rho = jammer_power;
  const double s2 = noise_var;
  if (bp_over_bj >= 1.0) {
    // Narrow-band jammer (Bj <= Bp): ideal excision filter, eq. (9)/(11).
    // Apply the filter only while it helps (eq. (10)); otherwise gamma = 1.
    const double r = bp_over_bj;
    if (r <= 1.0) return 1.0;  // Bj == Bp: no offset, nothing to excise
    const double gamma = (rho + s2) * (r - 1.0) / (r * (1.0 + s2));
    return std::max(gamma, 1.0);
  }
  // Wide-band jammer (Bj > Bp): ideal low-pass filter, eq. (12).
  return (rho + s2) / (bp_over_bj * rho + s2);
}

double ber_from_snr(double snr) {
  if (snr < 0.0) snr = 0.0;
  return 0.5 * std::erfc(std::sqrt(snr / 2.0));
}

double packet_error_rate(double ber, std::size_t n_bits) {
  ber = std::clamp(ber, 0.0, 1.0);
  if (ber >= 1.0) return 1.0;
  // 1 - (1 - Pb)^N, computed stably for tiny Pb.
  return -std::expm1(static_cast<double>(n_bits) * std::log1p(-ber));
}

double normalized_throughput(double ber, std::size_t n_bits) {
  return 1.0 - packet_error_rate(ber, n_bits);
}

// -------------------------------------------------------------- BhssModel

BhssModel::BhssModel(std::vector<double> hop_bandwidths, std::vector<double> hop_probs,
                     double processing_gain, double jammer_power)
    : bw_(std::move(hop_bandwidths)),
      probs_(std::move(hop_probs)),
      l_(processing_gain),
      rho_(jammer_power) {
  BHSS_REQUIRE(!bw_.empty() && bw_.size() == probs_.size(),
               "BhssModel: bandwidths/probabilities size mismatch");
  const double max_bw = *std::max_element(bw_.begin(), bw_.end());
  BHSS_REQUIRE(std::abs(max_bw - 1.0) <= 1e-9, "BhssModel: bandwidths must be normalised to max 1");
  BHSS_REQUIRE(l_ > 0.0, "BhssModel: processing gain must be > 0");
  BHSS_REQUIRE(rho_ >= 0.0, "BhssModel: jammer power must be >= 0");
  double total = 0.0;
  for (double p : probs_) {
    BHSS_REQUIRE(p >= 0.0, "BhssModel: draw probabilities must be >= 0");
    total += p;
  }
  BHSS_REQUIRE(total > 0.0, "BhssModel: zero distribution");
  for (double& p : probs_) p /= total;
}

BhssModel BhssModel::log_uniform(double range, std::size_t levels, double processing_gain,
                                 double jammer_power) {
  BHSS_REQUIRE(range >= 1.0 && levels >= 2, "log_uniform: bad range/levels");
  std::vector<double> bw(levels);
  std::vector<double> probs(levels, 1.0);
  for (std::size_t k = 0; k < levels; ++k) {
    bw[k] = std::pow(range, -static_cast<double>(k) / static_cast<double>(levels - 1));
  }
  return BhssModel(std::move(bw), std::move(probs), processing_gain, jammer_power);
}

double BhssModel::noise_var_for_ebno(double ebno_linear) const {
  BHSS_REQUIRE(ebno_linear > 0.0, "noise_var_for_ebno: Eb/N0 must be > 0");
  return l_ / (2.0 * ebno_linear);
}

double BhssModel::snr_at_hop(double alpha, double bj, double noise_var) const {
  const double gamma = snr_improvement_bound(alpha / bj, rho_, noise_var);
  return gamma * output_snr_unfiltered(l_, rho_, noise_var);
}

double BhssModel::expected_gamma(double bj, double noise_var) const {
  double gamma = 0.0;
  for (std::size_t k = 0; k < bw_.size(); ++k) {
    gamma += probs_[k] * snr_improvement_bound(bw_[k] / bj, rho_, noise_var);
  }
  return gamma;
}

double BhssModel::ber_fixed_jammer(double bj, double ebno_linear) const {
  const double s2 = noise_var_for_ebno(ebno_linear);
  const double snr = expected_gamma(bj, s2) * output_snr_unfiltered(l_, rho_, s2);
  return ber_from_snr(snr);
}

double BhssModel::ber_random_jammer(double ebno_linear) const {
  const double s2 = noise_var_for_ebno(ebno_linear);
  double gamma = 0.0;
  const double jam_p = 1.0 / static_cast<double>(bw_.size());
  for (std::size_t k = 0; k < bw_.size(); ++k) {
    for (std::size_t j = 0; j < bw_.size(); ++j) {
      gamma += probs_[k] * jam_p * snr_improvement_bound(bw_[k] / bw_[j], rho_, s2);
    }
  }
  return ber_from_snr(gamma * output_snr_unfiltered(l_, rho_, s2));
}

double BhssModel::ber_dsss(double ebno_linear, double processing_gain_override) const {
  BHSS_REQUIRE(ebno_linear > 0.0, "ber_dsss: Eb/N0 must be > 0");
  BHSS_REQUIRE(processing_gain_override >= 0.0, "ber_dsss: processing gain override must be >= 0");
  const double l = processing_gain_override > 0.0 ? processing_gain_override : l_;
  const double s2 = l / (2.0 * ebno_linear);
  return ber_from_snr(output_snr_unfiltered(l, rho_, s2));
}

double BhssModel::throughput_fixed_jammer(double bj, double ebno_linear,
                                          std::size_t n_bits) const {
  const double s2 = noise_var_for_ebno(ebno_linear);
  double delivered = 0.0;
  double offered = 0.0;
  for (std::size_t k = 0; k < bw_.size(); ++k) {
    const double pp = packet_error_rate(ber_from_snr(snr_at_hop(bw_[k], bj, s2)), n_bits);
    delivered += probs_[k] * bw_[k] * (1.0 - pp);
    offered += probs_[k] * bw_[k];
  }
  return delivered / offered;
}

double BhssModel::throughput_random_jammer(double ebno_linear, std::size_t n_bits) const {
  const double s2 = noise_var_for_ebno(ebno_linear);
  const double jam_p = 1.0 / static_cast<double>(bw_.size());
  double delivered = 0.0;
  double offered = 0.0;
  for (std::size_t k = 0; k < bw_.size(); ++k) {
    double pp_avg = 0.0;
    for (std::size_t j = 0; j < bw_.size(); ++j) {
      pp_avg += jam_p * packet_error_rate(ber_from_snr(snr_at_hop(bw_[k], bw_[j], s2)), n_bits);
    }
    delivered += probs_[k] * bw_[k] * (1.0 - pp_avg);
    offered += probs_[k] * bw_[k];
  }
  return delivered / offered;
}

double BhssModel::throughput_dsss(double ebno_linear, std::size_t n_bits) const {
  const double ber = ber_dsss(ebno_linear, dsss_equivalent_processing_gain());
  return normalized_throughput(ber, n_bits);
}

double BhssModel::dsss_equivalent_processing_gain() const {
  double mean_bw = 0.0;
  for (std::size_t k = 0; k < bw_.size(); ++k) mean_bw += probs_[k] * bw_[k];
  return l_ / mean_bw;  // max(B) is 1 by construction
}

}  // namespace bhss::core::theory
