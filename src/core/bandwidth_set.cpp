#include "core/bandwidth_set.hpp"

#include <stdexcept>

#include "core/contracts.hpp"

namespace bhss::core {
namespace {

/// The paper's front-end sampling rate Rs (§6.2), shared by both presets.
constexpr double kPaperSampleRateHz = 20e6;

}  // namespace

BandwidthSet::BandwidthSet(double sample_rate_hz, std::vector<std::size_t> sps_levels)
    : sample_rate_hz_(sample_rate_hz), sps_levels_(std::move(sps_levels)) {
  BHSS_REQUIRE(sample_rate_hz_ > 0.0, "BandwidthSet: Rs must be > 0");
  BHSS_REQUIRE(!sps_levels_.empty(), "BandwidthSet: need >= 1 level");
  std::size_t prev = 0;
  for (std::size_t sps : sps_levels_) {
    BHSS_REQUIRE(sps >= 2 && sps % 2 == 0, "BandwidthSet: sps levels must be even and >= 2");
    BHSS_REQUIRE(sps > prev, "BandwidthSet: sps levels must be ascending");
    prev = sps;
  }
}

BandwidthSet BandwidthSet::paper() {
  return BandwidthSet(kPaperSampleRateHz, {2, 4, 8, 16, 32, 64, 128});
}

BandwidthSet BandwidthSet::small() { return BandwidthSet(kPaperSampleRateHz, {2, 4, 8, 16}); }

double BandwidthSet::hopping_range() const noexcept {
  return static_cast<double>(sps_levels_.back()) / static_cast<double>(sps_levels_.front());
}

std::vector<double> BandwidthSet::bandwidth_fracs() const {
  std::vector<double> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) out.push_back(bandwidth_frac(i));
  return out;
}

}  // namespace bhss::core
