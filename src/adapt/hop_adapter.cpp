#include "adapt/hop_adapter.hpp"

#include <cmath>

namespace bhss::adapt {
namespace {

constexpr double kDeweight = 0.25;        ///< multiplier per suspicion hit, in (0, 1)
constexpr std::uint32_t kDeweightCap = 4;  ///< max suspicion hits that count per band
constexpr double kMinOccupancy = 0.02;     ///< occupancy floor per band (n * floor < 1)
constexpr double kRecoverStep = 0.5;       ///< per-step blend back toward base, in (0, 1]
constexpr double kSnapTolerance = 1e-9;    ///< max |p - base| before snapping exactly

static_assert(kDeweight > 0.0 && kDeweight < 1.0, "kDeweight must lie in (0, 1)");
static_assert(kMinOccupancy >= 0.0, "the occupancy floor must be >= 0");

}  // namespace

HopAdapter::HopAdapter(std::vector<double> base_probs) : base_(std::move(base_probs)) {
  BHSS_REQUIRE(!base_.empty(), "HopAdapter: need at least one bandwidth level");
  BHSS_REQUIRE(kMinOccupancy * static_cast<double>(base_.size()) < 1.0,
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
  // Every weight keeps at least base_i * kDeweight^kDeweightCap and some
  // base_i >= 1/n, so the sum is positive.
  double sum = 0.0;
  for (std::size_t i = 0; i < base_.size(); ++i) {
    const std::uint32_t hits = std::min(suspicion[i], kDeweightCap);
    double w = base_[i];
    for (std::uint32_t k = 0; k < hits; ++k) w *= kDeweight;
    weights_[i] = w;
    sum += w;
  }
  const double span = 1.0 - kMinOccupancy * static_cast<double>(base_.size());
  for (std::size_t i = 0; i < base_.size(); ++i) {
    probs_[i] = kMinOccupancy + span * weights_[i] / sum;
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

}  // namespace bhss::adapt
