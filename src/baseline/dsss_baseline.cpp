#include "baseline/dsss_baseline.hpp"

namespace bhss::baseline {

core::SystemConfig dsss_config(const core::BandwidthSet& bands, std::size_t level) {
  core::SystemConfig cfg;
  cfg.seed = 0xD555ULL;
  cfg.pattern = core::HopPattern::fixed(bands, level);
  cfg.hopping = false;
  return cfg;
}

}  // namespace bhss::baseline
