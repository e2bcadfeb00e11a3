// Unit tests for the fixed-bandwidth DSSS baseline configs. The analytical
// DSSS/FHSS curve is `core::theory::BhssModel::ber_dsss`, tested in
// test_core_theory.cpp.

#include <gtest/gtest.h>

#include "baseline/dsss_baseline.hpp"

namespace bhss::baseline {
namespace {

TEST(DsssBaseline, ConfigDisablesHopping) {
  const core::SystemConfig cfg = dsss_config(core::BandwidthSet::paper(), 2);
  EXPECT_FALSE(cfg.hopping);
  EXPECT_EQ(cfg.fixed_bw_index, 2U);
  EXPECT_EQ(cfg.filter_policy, core::FilterPolicy::adaptive);
  const core::SystemConfig raw = dsss_config_unfiltered(core::BandwidthSet::paper(), 2);
  EXPECT_EQ(raw.filter_policy, core::FilterPolicy::off);
}

}  // namespace
}  // namespace bhss::baseline
