#include "core/hop_pattern.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"
#include "phy/chip_table.hpp"

namespace bhss::core {
namespace {

/// Table 1, "Parabolic" row: probabilities for the 7 paper bandwidths
/// 10, 5, 2.5, 1.25, 0.625, 0.3125, 0.15625 MHz, obtained by the authors
/// via Monte-Carlo maximisation of the minimum power advantage.
constexpr double kPaperParabolic[7] = {0.271, 0.158, 0.063, 0.001, 0.013, 0.220, 0.274};

std::vector<double> normalised(std::vector<double> p) {
  double total = 0.0;
  for (double v : p) {
    BHSS_REQUIRE(v >= 0.0, "HopPattern: negative probability");
    total += v;
  }
  BHSS_REQUIRE(total > 0.0, "HopPattern: zero distribution");
  for (double& v : p) v /= total;
  return p;
}

}  // namespace

std::string to_string(HopPatternType t) {
  switch (t) {
    case HopPatternType::linear: return "linear";
    case HopPatternType::exponential: return "exponential";
    case HopPatternType::parabolic: return "parabolic";
  }
  return "unknown";
}

HopPattern::HopPattern(BandwidthSet bands, std::vector<double> probs)
    : bands_(std::move(bands)), probs_(std::move(probs)) {
  BHSS_REQUIRE(probs_.size() == bands_.size(),
               "HopPattern: probability count must match bandwidth count");
}

HopPattern HopPattern::make(HopPatternType type, const BandwidthSet& bands) {
  const std::size_t n = bands.size();
  std::vector<double> p(n, 0.0);
  switch (type) {
    case HopPatternType::linear:
      for (double& v : p) v = 1.0;
      break;
    case HopPatternType::exponential:
      // p_i proportional to B_i equalises time spent per bandwidth when a
      // hop is a fixed number of symbols (narrow hops last 1/B_i longer).
      for (std::size_t i = 0; i < n; ++i) p[i] = bands.bandwidth_frac(i);
      break;
    case HopPatternType::parabolic:
      if (n == 7) {
        p.assign(std::begin(kPaperParabolic), std::end(kPaperParabolic));
      } else {
        // Symmetric parabola over level index, emphasising both band edges.
        const double mid = (static_cast<double>(n) - 1.0) / 2.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double d = (static_cast<double>(i) - mid) / (mid > 0.0 ? mid : 1.0);
          p[i] = 0.05 + d * d;
        }
      }
      break;
  }
  return HopPattern(bands, normalised(std::move(p)));
}

HopPattern HopPattern::custom(const BandwidthSet& bands, std::vector<double> probabilities) {
  return HopPattern(bands, normalised(std::move(probabilities)));
}

HopPattern HopPattern::fixed(const BandwidthSet& bands, std::size_t level) {
  BHSS_REQUIRE(level < bands.size(), "HopPattern::fixed: bad level");
  std::vector<double> p(bands.size(), 0.0);
  p[level] = 1.0;
  return HopPattern(bands, std::move(p));
}

std::size_t HopPattern::fixed_level() const {
  const auto drawn = [](double p) { return p > 0.0; };
  BHSS_REQUIRE(std::count_if(probs_.begin(), probs_.end(), drawn) == 1,
               "HopPattern: a link with hopping off needs a pattern of one level");
  return static_cast<std::size_t>(std::find_if(probs_.begin(), probs_.end(), drawn) -
                                  probs_.begin());
}

std::size_t HopPattern::draw(SharedRandom& rng) const noexcept { return rng.pick(probs_); }

double HopPattern::average_bandwidth_hz() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < bands_.size(); ++i) acc += probs_[i] * bands_.bandwidth_hz(i);
  return acc;
}

double HopPattern::average_throughput_bps() const {
  // Bit rate at bandwidth B: B chips/s / 32 chips/symbol * 4 bits/symbol.
  const double bits_per_chip =
      static_cast<double>(phy::kBitsPerSymbol) / static_cast<double>(phy::kChipsPerSymbol);
  return average_bandwidth_hz() * bits_per_chip;
}

double HopPattern::time_weighted_throughput_bps() const {
  // E[T per symbol] = sum_i p_i * chips_per_symbol / B_i; rate = bits / E[T].
  double expected_symbol_time = 0.0;
  for (std::size_t i = 0; i < bands_.size(); ++i) {
    expected_symbol_time +=
        probs_[i] * static_cast<double>(phy::kChipsPerSymbol) / bands_.bandwidth_hz(i);
  }
  return static_cast<double>(phy::kBitsPerSymbol) / expected_symbol_time;
}

}  // namespace bhss::core
