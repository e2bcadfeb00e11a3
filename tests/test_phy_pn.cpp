// Unit tests for the LFSR PN generator: maximal-length period, balance,
// and seed behaviour.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "phy/pn.hpp"

namespace bhss::phy {
namespace {

TEST(LfsrPn, MaximalPeriod) {
  // Default taps implement a maximal-length 16-bit LFSR: the state must
  // cycle through all 2^16 - 1 non-zero states.
  LfsrPn pn(0x1234);
  const std::uint32_t start = pn.state();
  std::size_t period = 0;
  do {
    (void)pn.next_bit();
    ++period;
    ASSERT_LE(period, 70000U) << "period overflow — taps not maximal?";
  } while (pn.state() != start);
  EXPECT_EQ(period, 65535U);
}

TEST(LfsrPn, VisitsEveryNonZeroState) {
  LfsrPn pn(1);
  std::set<std::uint32_t> seen;
  for (std::size_t i = 0; i < 65535; ++i) {
    seen.insert(pn.state());
    (void)pn.next_bit();
  }
  EXPECT_EQ(seen.size(), 65535U);
  EXPECT_EQ(seen.count(0), 0U);
}

TEST(LfsrPn, BalancedOutput) {
  // A maximal-length sequence has 2^(n-1) ones and 2^(n-1)-1 zeros.
  LfsrPn pn(0xACE1);
  std::size_t ones = 0;
  for (std::size_t i = 0; i < 65535; ++i) {
    if (pn.next_bit()) ++ones;
  }
  EXPECT_EQ(ones, 32768U);
}

TEST(LfsrPn, ZeroSeedRemapped) {
  LfsrPn pn(0);
  EXPECT_NE(pn.state(), 0U);
}

TEST(LfsrPn, ChipsAreAntipodal) {
  LfsrPn pn(7);
  for (std::size_t i = 0; i < 1000; ++i) {
    const float c = pn.next_chip();
    EXPECT_TRUE(c == 1.0F || c == -1.0F);
  }
}

TEST(LfsrPn, ChipsNearZeroMean) {
  LfsrPn pn(99);
  double acc = 0.0;
  for (std::size_t i = 0; i < 65535; ++i) acc += pn.next_chip();
  EXPECT_NEAR(acc / 65535.0, 0.0, 1e-4);
}

TEST(LfsrPn, LowAutocorrelation) {
  // Shifted maximal-length sequences correlate at -1/N.
  LfsrPn a(0x5555);
  LfsrPn b(0x5555);
  std::vector<float> seq(65535);
  for (float& c : seq) c = a.next_chip();
  for (std::size_t lag : {1UL, 7UL, 100UL, 30000UL}) {
    double corr = 0.0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      corr += seq[i] * seq[(i + lag) % seq.size()];
    }
    EXPECT_NEAR(corr / static_cast<double>(seq.size()), 0.0, 1e-4) << "lag " << lag;
  }
}

TEST(LfsrPn, DifferentSeedsDiverge) {
  LfsrPn a(0x1111);
  LfsrPn b(0x2222);
  std::size_t same = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    if (a.next_bit() == b.next_bit()) ++same;
  }
  // Roughly half should match, never all.
  EXPECT_GT(same, 300U);
  EXPECT_LT(same, 700U);
}

TEST(LfsrPn, SameSeedsIdentical) {
  LfsrPn a(0xBEEF);
  LfsrPn b(0xBEEF);
  for (std::size_t i = 0; i < 500; ++i) EXPECT_EQ(a.next_bit(), b.next_bit());
}

}  // namespace
}  // namespace bhss::phy
