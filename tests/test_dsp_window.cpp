// Unit tests for window functions: symmetry, range, endpoint behaviour and
// the PSD normalisation helper.

#include <gtest/gtest.h>

#include <cmath>

#include "dsp/window.hpp"

namespace bhss::dsp {
namespace {

class AllWindows : public ::testing::TestWithParam<Window> {};

TEST_P(AllWindows, SymmetricInRangeAndPeaksInMiddle) {
  const fvec w = make_window(GetParam(), 65);
  ASSERT_EQ(w.size(), 65U);
  float peak = 0.0F;
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w[i], -1e-6F) << "i=" << i;
    EXPECT_LE(w[i], 1.0F + 1e-6F) << "i=" << i;
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-5F) << "i=" << i;
    peak = std::max(peak, w[i]);
  }
  EXPECT_NEAR(peak, w[32], 1e-6F);  // maximum at the centre
  EXPECT_NEAR(w[32], 1.0F, 5e-2F);
}

TEST_P(AllWindows, TrivialLengths) {
  EXPECT_TRUE(make_window(GetParam(), 0).empty());
  const fvec w1 = make_window(GetParam(), 1);
  ASSERT_EQ(w1.size(), 1U);
  EXPECT_FLOAT_EQ(w1[0], 1.0F);
}

INSTANTIATE_TEST_SUITE_P(Shapes, AllWindows,
                         ::testing::Values(Window::rectangular, Window::hann,
                                           Window::blackman));

TEST(Window, RectangularIsAllOnes) {
  const fvec w = make_window(Window::rectangular, 17);
  for (float v : w) EXPECT_FLOAT_EQ(v, 1.0F);
}

TEST(Window, HannEndpointsAreZero) {
  const fvec w = make_window(Window::hann, 33);
  EXPECT_NEAR(w.front(), 0.0F, 1e-6F);
  EXPECT_NEAR(w.back(), 0.0F, 1e-6F);
}

TEST(WindowPower, MatchesDirectSum) {
  const fvec w = make_window(Window::hann, 64);
  double expected = 0.0;
  for (float v : w) expected += static_cast<double>(v) * v;
  EXPECT_NEAR(window_power(w), expected, 1e-9);
  EXPECT_NEAR(window_power(make_window(Window::rectangular, 50)), 50.0, 1e-9);
}

}  // namespace
}  // namespace bhss::dsp
