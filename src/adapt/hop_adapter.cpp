#include "adapt/hop_adapter.hpp"

#include <cmath>

namespace bhss::adapt {
namespace {

constexpr double kRecoverStep = 0.5;     ///< per-step blend back toward base, in (0, 1]
constexpr double kSnapTolerance = 1e-9;  ///< max |p - base| before snapping exactly

}  // namespace

HopAdapter::HopAdapter(const HopAdapterConfig& config, std::vector<double> base_probs)
    : config_(config), base_(std::move(base_probs)) {
  BHSS_REQUIRE(!base_.empty(), "HopAdapter: need at least one bandwidth level");
  BHSS_REQUIRE(config_.deweight > 0.0 && config_.deweight < 1.0,
               "HopAdapter: deweight must lie in (0, 1)");
  BHSS_REQUIRE(config_.min_occupancy >= 0.0, "HopAdapter: occupancy floor must be >= 0");
  BHSS_REQUIRE(config_.min_occupancy * static_cast<double>(base_.size()) < 1.0,
               "HopAdapter: occupancy floors must leave probability to distribute");

  double sum = 0.0;
  for (const double p : base_) {
    BHSS_REQUIRE(p >= 0.0 && std::isfinite(p), "HopAdapter: base probabilities must be finite and >= 0");
    sum += p;
  }
  BHSS_REQUIRE(sum > 0.0, "HopAdapter: base probabilities must not all be zero");
  for (double& p : base_) p /= sum;
  probs_ = base_;
  weights_.assign(base_.size(), 0.0);
}

void HopAdapter::reweight(std::span<const std::uint32_t> suspicion) {
  BHSS_REQUIRE(suspicion.size() == base_.size(),
               "HopAdapter: suspicion vector must cover every bandwidth index");
  double sum = 0.0;
  for (std::size_t i = 0; i < base_.size(); ++i) {
    const std::uint32_t hits =
        std::min<std::uint32_t>(suspicion[i], static_cast<std::uint32_t>(config_.deweight_cap));
    double w = base_[i];
    for (std::uint32_t k = 0; k < hits; ++k) w *= config_.deweight;
    weights_[i] = w;
    sum += w;
  }
  // All-suspect degenerate case: every band equally poisoned, spread wide.
  if (sum <= 0.0) {
    fall_back_uniform();
    return;
  }
  const double span = 1.0 - config_.min_occupancy * static_cast<double>(base_.size());
  for (std::size_t i = 0; i < base_.size(); ++i) {
    probs_[i] = config_.min_occupancy + span * weights_[i] / sum;
  }
  at_base_ = false;
}

void HopAdapter::fall_back_uniform() noexcept {
  const double uniform = 1.0 / static_cast<double>(probs_.size());
  for (double& p : probs_) p = uniform;
  at_base_ = false;
}

bool HopAdapter::recover_toward_base() noexcept {
  if (at_base_) return true;
  double max_gap = 0.0;
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    probs_[i] += kRecoverStep * (base_[i] - probs_[i]);
    const double gap = std::abs(probs_[i] - base_[i]);
    if (gap > max_gap) max_gap = gap;
  }
  if (max_gap <= kSnapTolerance) {
    probs_ = base_;
    at_base_ = true;
  }
  return at_base_;
}

void HopAdapter::reset() noexcept {
  probs_ = base_;
  at_base_ = true;
}

}  // namespace bhss::adapt
