// Unit tests for the hop schedule: symbol/sample bookkeeping, determinism
// from the shared random source, and the jammer-observable view.

#include <gtest/gtest.h>

#include "core/hop_schedule.hpp"

namespace bhss::core {
namespace {

HopPattern test_pattern() {
  return HopPattern::make(HopPatternType::linear, BandwidthSet::paper());
}

TEST(HopSchedule, CoversEverySymbolExactlyOnce) {
  SharedRandom rng(1);
  const HopSchedule s = HopSchedule::make(35, 4, test_pattern(), rng);
  EXPECT_EQ(s.total_symbols, 35U);
  std::size_t symbol = 0;
  for (const HopSegment& seg : s.segments) {
    EXPECT_EQ(seg.first_symbol, symbol);
    symbol += seg.n_symbols;
  }
  EXPECT_EQ(symbol, 35U);
  // 35 = 8 full hops of 4 + one of 3.
  ASSERT_EQ(s.segments.size(), 9U);
  EXPECT_EQ(s.segments.back().n_symbols, 3U);
}

TEST(HopSchedule, SamplesAreContiguous) {
  SharedRandom rng(2);
  const HopSchedule s = HopSchedule::make(64, 4, test_pattern(), rng);
  std::size_t sample = 0;
  for (const HopSegment& seg : s.segments) {
    EXPECT_EQ(seg.start_sample, sample);
    EXPECT_EQ(seg.n_samples, seg.n_symbols * 32 * seg.sps);
    EXPECT_EQ(seg.n_chips(), seg.n_symbols * 32);
    sample += seg.n_samples;
  }
  EXPECT_EQ(s.total_samples, sample);
}

TEST(HopSchedule, DeterministicGivenSameRandomState) {
  SharedRandom rng_a(33);
  SharedRandom rng_b(33);
  const HopSchedule a = HopSchedule::make(64, 4, test_pattern(), rng_a);
  const HopSchedule b = HopSchedule::make(64, 4, test_pattern(), rng_b);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_EQ(a.segments[i].bw_index, b.segments[i].bw_index);
    EXPECT_EQ(a.segments[i].sps, b.segments[i].sps);
  }
}

TEST(HopSchedule, DifferentSeedsProduceDifferentPlans) {
  SharedRandom rng_a(1);
  SharedRandom rng_b(2);
  const HopSchedule a = HopSchedule::make(64, 4, test_pattern(), rng_a);
  const HopSchedule b = HopSchedule::make(64, 4, test_pattern(), rng_b);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    if (a.segments[i].bw_index != b.segments[i].bw_index) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(HopSchedule, SpsMatchesBandwidthIndex) {
  SharedRandom rng(3);
  const HopPattern pattern = test_pattern();
  const HopSchedule s = HopSchedule::make(64, 4, pattern, rng);
  for (const HopSegment& seg : s.segments) {
    EXPECT_EQ(seg.sps, pattern.bands().sps(seg.bw_index));
  }
}

TEST(HopSchedule, FixedScheduleIsOneSegment) {
  const HopSchedule s = HopSchedule::fixed(40, BandwidthSet::paper(), 2);
  ASSERT_EQ(s.segments.size(), 1U);
  EXPECT_EQ(s.segments[0].bw_index, 2U);
  EXPECT_EQ(s.segments[0].sps, 8U);
  EXPECT_EQ(s.segments[0].n_symbols, 40U);
  EXPECT_EQ(s.total_samples, 40U * 32U * 8U);
}

TEST(HopSchedule, ObservedHopsReflectScheduleAndDelay) {
  SharedRandom rng(4);
  const HopPattern pattern = test_pattern();
  const HopSchedule s = HopSchedule::make(16, 4, pattern, rng);
  const auto hops = s.observed_hops(pattern.bands(), 500);
  ASSERT_EQ(hops.size(), s.segments.size());
  for (std::size_t i = 0; i < hops.size(); ++i) {
    EXPECT_EQ(hops[i].start, s.segments[i].start_sample + 500);
    EXPECT_DOUBLE_EQ(hops[i].bandwidth_frac,
                     pattern.bands().bandwidth_frac(s.segments[i].bw_index));
  }
}

TEST(HopSchedule, RejectsDegenerateInputs) {
  SharedRandom rng(5);
  EXPECT_THROW((void)HopSchedule::make(0, 4, test_pattern(), rng), std::invalid_argument);
  EXPECT_THROW((void)HopSchedule::make(10, 0, test_pattern(), rng), std::invalid_argument);
  EXPECT_THROW((void)HopSchedule::fixed(0, BandwidthSet::paper(), 0), std::invalid_argument);
}

TEST(HopSchedule, HopDwellBoundsJammerReactionWindow)  {
  // With symbols_per_hop = 4 at the widest bandwidth (sps = 2), a hop
  // lasts 256 samples = 12.8 us at 20 MS/s — shorter than a realistic
  // reactive jammer's turnaround (paper §2/§6.1 argue a few symbols).
  SharedRandom rng(6);
  const HopSchedule s = HopSchedule::make(64, 4, test_pattern(), rng);
  for (const HopSegment& seg : s.segments) {
    const double dwell_us = static_cast<double>(seg.n_samples) / 20.0;  // 20 MS/s
    EXPECT_GE(dwell_us, 12.0);
  }
}

}  // namespace
}  // namespace bhss::core
