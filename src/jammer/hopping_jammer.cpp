#include "jammer/hopping_jammer.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/contracts.hpp"

namespace bhss::jammer {

HoppingJammer::HoppingJammer(std::vector<double> bandwidth_fracs,
                             std::vector<double> probabilities, std::size_t dwell_samples,
                             std::uint64_t seed)
    : bandwidth_fracs_(std::move(bandwidth_fracs)),
      dwell_samples_(dwell_samples),
      rng_(seed),
      pick_(probabilities.begin(), probabilities.end()) {
  BHSS_REQUIRE(!bandwidth_fracs_.empty() && bandwidth_fracs_.size() == probabilities.size(),
               "HoppingJammer: bandwidths/probabilities size mismatch");
  BHSS_REQUIRE(dwell_samples_ != 0, "HoppingJammer: dwell must be > 0");
  sources_.reserve(bandwidth_fracs_.size());
  for (std::size_t i = 0; i < bandwidth_fracs_.size(); ++i) {
    sources_.emplace_back(bandwidth_fracs_[i], seed * 0x9E3779B97F4A7C15ULL + i + 1);
  }
}

dsp::cvec HoppingJammer::generate(std::size_t n) {
  dsp::cvec out(n);
  last_hops_.clear();
  for (std::size_t pos = 0; pos < n; pos += dwell_samples_) {
    const std::size_t idx = pick_(rng_);
    last_hops_.push_back(bandwidth_fracs_[idx]);
    sources_[idx].fill(dsp::cspan_mut{out}.subspan(pos, std::min(dwell_samples_, n - pos)));
  }
  return out;
}

}  // namespace bhss::jammer
