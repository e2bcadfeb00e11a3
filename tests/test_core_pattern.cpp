// Unit tests for the hopping patterns, reproducing Table 1 and the
// §6.4.1 bandwidth/throughput figures, plus the Monte-Carlo optimiser.

#include <gtest/gtest.h>

#include <numeric>

#include "core/hop_pattern.hpp"
#include "core/pattern_optimizer.hpp"
#include "core/shared_random.hpp"

namespace bhss::core {
namespace {

TEST(HopPattern, Table1Linear) {
  const HopPattern p = HopPattern::make(HopPatternType::linear, BandwidthSet::paper());
  for (double prob : p.probabilities()) {
    EXPECT_NEAR(prob, 1.0 / 7.0, 1e-12);  // Table 1: 14.3 % each
  }
}

TEST(HopPattern, Table1Exponential) {
  const HopPattern p = HopPattern::make(HopPatternType::exponential, BandwidthSet::paper());
  // Table 1: 50.4, 25.2, 12.6, 6.3, 3.1, 1.6, 0.8 %.
  const double expected[] = {0.504, 0.252, 0.126, 0.063, 0.031, 0.016, 0.008};
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_NEAR(p.probabilities()[i], expected[i], 0.002) << "level " << i;
  }
}

TEST(HopPattern, Table1Parabolic) {
  const HopPattern p = HopPattern::make(HopPatternType::parabolic, BandwidthSet::paper());
  // Table 1: 27.1, 15.8, 6.3, 0.1, 1.3, 22.0, 27.4 %.
  const double expected[] = {0.271, 0.158, 0.063, 0.001, 0.013, 0.220, 0.274};
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_NEAR(p.probabilities()[i], expected[i], 1e-6) << "level " << i;
  }
}

TEST(HopPattern, AverageBandwidthMatchesPaper) {
  // §6.4.1: 2.83 MHz (linear), 6.72 MHz (exponential), 3.77 MHz (parabolic).
  const BandwidthSet bands = BandwidthSet::paper();
  EXPECT_NEAR(HopPattern::make(HopPatternType::linear, bands).average_bandwidth_hz(), 2.83e6,
              0.02e6);
  EXPECT_NEAR(HopPattern::make(HopPatternType::exponential, bands).average_bandwidth_hz(),
              6.72e6, 0.02e6);
  EXPECT_NEAR(HopPattern::make(HopPatternType::parabolic, bands).average_bandwidth_hz(), 3.77e6,
              0.02e6);
}

TEST(HopPattern, AverageThroughputMatchesPaper) {
  // §6.4.1: 354 kb/s (linear), 840 kb/s (exponential), 471 kb/s (parabolic).
  const BandwidthSet bands = BandwidthSet::paper();
  EXPECT_NEAR(HopPattern::make(HopPatternType::linear, bands).average_throughput_bps(), 354e3,
              3e3);
  EXPECT_NEAR(HopPattern::make(HopPatternType::exponential, bands).average_throughput_bps(),
              840e3, 3e3);
  EXPECT_NEAR(HopPattern::make(HopPatternType::parabolic, bands).average_throughput_bps(),
              471e3, 3e3);
}

TEST(HopPattern, ExponentialEqualisesTimeShare) {
  // With equal-symbol hops, time per hop ~ 1/B; p ~ B makes p_i / B_i
  // constant = equal time at every bandwidth.
  const HopPattern p = HopPattern::make(HopPatternType::exponential, BandwidthSet::paper());
  const double ref = p.probabilities()[0] / p.bands().bandwidth_hz(0);
  for (std::size_t i = 1; i < 7; ++i) {
    EXPECT_NEAR(p.probabilities()[i] / p.bands().bandwidth_hz(i), ref, ref * 1e-9);
  }
}

TEST(HopPattern, TimeWeightedThroughputBelowDrawWeighted) {
  // Narrow hops last longer, so the time-weighted rate is lower than the
  // paper's per-draw average for every non-degenerate pattern.
  for (auto type : {HopPatternType::linear, HopPatternType::exponential,
                    HopPatternType::parabolic}) {
    const HopPattern p = HopPattern::make(type, BandwidthSet::paper());
    EXPECT_LT(p.time_weighted_throughput_bps(), p.average_throughput_bps())
        << to_string(type);
  }
}

TEST(HopPattern, ProbabilitiesSumToOne) {
  for (auto type : {HopPatternType::linear, HopPatternType::exponential,
                    HopPatternType::parabolic}) {
    const HopPattern p = HopPattern::make(type, BandwidthSet::paper());
    const double sum =
        std::accumulate(p.probabilities().begin(), p.probabilities().end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9) << to_string(type);
  }
}

TEST(HopPattern, DrawMatchesDistribution) {
  const HopPattern p = HopPattern::make(HopPatternType::exponential, BandwidthSet::paper());
  SharedRandom rng(77);
  std::vector<int> counts(7, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[p.draw(rng)];
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_NEAR(counts[i] / static_cast<double>(n), p.probabilities()[i], 0.01)
        << "level " << i;
  }
}

TEST(HopPattern, FixedAlwaysDrawsSameLevel) {
  const HopPattern p = HopPattern::fixed(BandwidthSet::paper(), 3);
  SharedRandom rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(p.draw(rng), 3U);
  EXPECT_THROW(HopPattern::fixed(BandwidthSet::paper(), 7), std::invalid_argument);
}

TEST(HopPattern, CustomNormalises) {
  const HopPattern p = HopPattern::custom(BandwidthSet::small(), {2.0, 2.0, 2.0, 2.0});
  for (double prob : p.probabilities()) EXPECT_NEAR(prob, 0.25, 1e-12);
  EXPECT_THROW(HopPattern::custom(BandwidthSet::small(), {1.0}), std::invalid_argument);
  EXPECT_THROW(HopPattern::custom(BandwidthSet::small(), {0, 0, 0, 0}), std::invalid_argument);
  EXPECT_THROW(HopPattern::custom(BandwidthSet::small(), {-1, 1, 1, 1}), std::invalid_argument);
}

TEST(HopPattern, ParabolicGeneralisesToOtherSetSizes) {
  const HopPattern p = HopPattern::make(HopPatternType::parabolic, BandwidthSet::small());
  // Edge-weighted: the extreme levels get more mass than the middle.
  EXPECT_GT(p.probabilities().front(), p.probabilities()[1]);
  EXPECT_GT(p.probabilities().back(), p.probabilities()[2]);
}

TEST(PatternOptimizer, ObjectiveRanksParabolicAboveOthers) {
  // §6.4.1: the parabolic pattern maximises the minimum expected power
  // advantage over all jammer bandwidths. Under the analytical objective
  // it must beat linear and exponential.
  const BandwidthSet bands = BandwidthSet::paper();
  const double lin = min_advantage_db(HopPattern::make(HopPatternType::linear, bands));
  const double exp_ = min_advantage_db(HopPattern::make(HopPatternType::exponential, bands));
  const double par = min_advantage_db(HopPattern::make(HopPatternType::parabolic, bands));
  EXPECT_GT(par, lin);
  EXPECT_GT(par, exp_);
}

TEST(PatternOptimizer, OptimizedBeatsNamedPatterns) {
  const BandwidthSet bands = BandwidthSet::paper();
  const HopPattern best = optimize_max_min_advantage(bands);
  const double best_score = min_advantage_db(best);
  for (auto type : {HopPatternType::linear, HopPatternType::exponential,
                    HopPatternType::parabolic}) {
    const double score = min_advantage_db(HopPattern::make(type, bands));
    EXPECT_GE(best_score + 1e-9, score) << to_string(type);
  }
}

TEST(PatternOptimizer, OptimumFavoursBandEdges) {
  // The qualitative property behind the "parabolic" name.
  const HopPattern best = optimize_max_min_advantage(BandwidthSet::paper());
  const auto& p = best.probabilities();
  const double edges = p.front() + p.back();
  const double middle = p[2] + p[3] + p[4];
  EXPECT_GT(edges, middle);
}

}  // namespace
}  // namespace bhss::core
