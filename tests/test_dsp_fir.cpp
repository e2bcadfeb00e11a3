// Unit tests for FIR filtering and design: ConvolverPlan::filter's
// equivalence to a direct-form convolution, its windows against the full
// output, its per-thread scratch, windowed-sinc low-pass specs, and the
// eq. (3) excision filter's notch behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <latch>
#include <limits>
#include <memory>
#include <numbers>
#include <random>
#include <thread>
#include <vector>

#include "dsp/fir.hpp"
#include "dsp/utils.hpp"

namespace bhss::dsp {
namespace {

cvec random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  cvec x(n);
  for (cf& v : x) v = cf{dist(rng), dist(rng)};
  return x;
}

/// y[n] = sum_k taps[k] * x[n-k] with zero initial state, output length
/// == input length: the direct form the overlap-save convolver computes.
cvec direct_convolution(const cvec& taps, const cvec& x) {
  cvec y(x.size(), cf{0.0F, 0.0F});
  for (std::size_t n = 0; n < x.size(); ++n) {
    for (std::size_t k = 0; k < taps.size() && k <= n; ++k) y[n] += taps[k] * x[n - k];
  }
  return y;
}

struct ConvolverCase {
  std::size_t taps;
  std::size_t signal;
};

class ConvolverVsDirect : public ::testing::TestWithParam<ConvolverCase> {};

TEST_P(ConvolverVsDirect, IdenticalOutput) {
  const auto [n_taps, n_sig] = GetParam();
  const cvec taps = random_signal(n_taps, 11);
  const cvec x = random_signal(n_sig, 12);

  const cvec expected = direct_convolution(taps, x);

  const auto plan = ConvolverPlan::make(taps);
  cvec got(x.size());
  plan->filter(x, 0, got);

  ASSERT_EQ(got.size(), expected.size());
  double scale = 0.0;
  for (const cf& t : taps) scale += std::abs(t);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].real(), expected[i].real(), 1e-3F * scale) << "i=" << i;
    EXPECT_NEAR(got[i].imag(), expected[i].imag(), 1e-3F * scale) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvolverVsDirect,
                         ::testing::Values(ConvolverCase{1, 100}, ConvolverCase{7, 64},
                                           ConvolverCase{64, 1000}, ConvolverCase{257, 300},
                                           ConvolverCase{513, 5000},
                                           ConvolverCase{1025, 1024}));

/// The skip = 0 call over `x` zero-padded to at least `len` samples: the
/// full output every window of x is cut from.
cvec full_output(const ConvolverPlan& plan, const cvec& x, std::size_t len) {
  cvec padded = x;
  if (padded.size() < len) padded.resize(len, cf{0.0F, 0.0F});
  cvec y(padded.size());
  plan.filter(padded, 0, y);
  return y;
}

/// The window [skip, skip + len) of y must carry the bits of the same
/// samples of the full output, and every sample of it must be written.
void expect_window_is_full_slice(const ConvolverPlan& plan, const cvec& x, std::size_t skip,
                                 std::size_t len) {
  const cvec full = full_output(plan, x, skip + len);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  cvec out(len, cf{nan, nan});
  plan.filter(x, skip, out);
  EXPECT_EQ(std::memcmp(out.data(), full.data() + skip, len * sizeof(cf)), 0)
      << "skip " << skip << " len " << len << " x " << x.size();
}

TEST(ConvolverPlan, WindowInsideTheFirstBlockIsTheFullSlice) {
  const auto plan = ConvolverPlan::make(random_signal(257, 21));
  ASSERT_EQ(plan->block_size, 1792U);  // 2048-point FFT
  const cvec x = random_signal(5000, 22);
  for (const std::size_t skip : {std::size_t{1}, std::size_t{256}, std::size_t{1000}}) {
    expect_window_is_full_slice(*plan, x, skip, 700);
  }
  expect_window_is_full_slice(*plan, x, 0, 1);
}

TEST(ConvolverPlan, WindowAcrossBlockBoundariesIsTheFullSlice) {
  const auto plan = ConvolverPlan::make(random_signal(257, 23));
  const std::size_t b = plan->block_size;
  const cvec x = random_signal(5000, 24);
  expect_window_is_full_slice(*plan, x, b - 100, 300);    // into the second block
  expect_window_is_full_slice(*plan, x, b, b + 10);       // from a block start, over two ends
  expect_window_is_full_slice(*plan, x, 2 * b + 5, 500);  // inside the third block only
  expect_window_is_full_slice(*plan, x, 7, x.size());     // all blocks, past the end
}

TEST(ConvolverPlan, WindowPastTheEndOfTheInputIsTheFullSlice) {
  const auto plan = ConvolverPlan::make(random_signal(257, 25));
  const std::size_t b = plan->block_size;
  const cvec x = random_signal(1000, 26);
  expect_window_is_full_slice(*plan, x, 900, 600);     // over the end of x and of y
  expect_window_is_full_slice(*plan, x, 3 * b, 100);   // a block of zeros only
  expect_window_is_full_slice(*plan, cvec{}, 0, 50);   // an empty input
}

TEST(ConvolverPlan, EmptyWindowWritesNothing) {
  const auto plan = ConvolverPlan::make(random_signal(33, 27));
  const cvec x = random_signal(3000, 28);
  cvec buf(4, cf{1.0F, 2.0F});
  for (const std::size_t skip : {std::size_t{0}, std::size_t{5}, plan->block_size + 3}) {
    plan->filter(x, skip, cspan_mut{buf}.first(0));
    plan->filter(cspan{}, skip, cspan_mut{buf}.first(0));
  }
  EXPECT_EQ(buf, cvec(4, cf{1.0F, 2.0F}));
  expect_window_is_full_slice(*plan, x, 0, x.size());
}

// The block scratch is one per thread, shared by every plan it runs: a
// small plan after a large one must not read the large one's samples.
TEST(ConvolverPlan, InterleavedPlanSizesMatchFreshThreads) {
  struct Case {
    std::shared_ptr<const ConvolverPlan> plan;
    cvec x;
    std::size_t skip;
    cvec want;
  };
  std::vector<Case> cases;
  for (const std::size_t n_taps : {std::size_t{2049}, std::size_t{7}, std::size_t{300},
                                   std::size_t{1025}, std::size_t{7}}) {
    const auto seed = static_cast<unsigned>(n_taps + cases.size());
    cases.push_back({ConvolverPlan::make(random_signal(n_taps, seed)),
                     random_signal(9000 + 97 * cases.size(), seed + 1), 3 * cases.size(), {}});
  }
  ASSERT_EQ(cases[0].plan->fft_size, 16384U);
  ASSERT_EQ(cases[1].plan->fft_size, 1024U);
  // Each reference on a thread of its own, whose scratch is fresh.
  for (Case& c : cases) {
    c.want.resize(c.x.size());
    std::thread([&c] { c.plan->filter(c.x, c.skip, c.want); }).join();
  }
  for (int round = 0; round < 2; ++round) {
    for (const Case& c : cases) {
      cvec got(c.x.size());
      c.plan->filter(c.x, c.skip, got);
      EXPECT_EQ(std::memcmp(got.data(), c.want.data(), got.size() * sizeof(cf)), 0)
          << "taps " << c.plan->taps.size() << " round " << round;
    }
  }
}

// Four threads on one shared plan (run under TSan as well) get what a
// serial run gets.
TEST(ConvolverPlan, SharedPlanAcrossThreadsMatchesASerialRun) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kCalls = 6;
  const auto plan = ConvolverPlan::make(random_signal(1025, 29));
  std::vector<cvec> inputs;
  for (std::size_t i = 0; i < kThreads * kCalls; ++i) {
    inputs.push_back(random_signal(4000 + 333 * i, static_cast<unsigned>(30 + i)));
  }
  auto run = [&plan, &inputs](std::size_t i) {
    cvec y(inputs[i].size() / 2);
    plan->filter(inputs[i], i * 17, y);
    return y;
  };
  std::vector<cvec> serial;
  for (std::size_t i = 0; i < inputs.size(); ++i) serial.push_back(run(i));

  std::vector<cvec> parallel(inputs.size());
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::size_t c = 0; c < kCalls; ++c) parallel[c * kThreads + t] = run(c * kThreads + t);
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_EQ(parallel[i].size(), serial[i].size());
    EXPECT_EQ(std::memcmp(parallel[i].data(), serial[i].data(), serial[i].size() * sizeof(cf)), 0)
        << "call " << i;
  }
}

TEST(DesignLowpass, UnityDcGain) {
  for (double cutoff : {0.05, 0.1, 0.25, 0.4}) {
    const fvec taps = design_lowpass(101, cutoff);
    double dc = 0.0;
    for (float t : taps) dc += t;
    EXPECT_NEAR(dc, 1.0, 1e-6) << "cutoff=" << cutoff;
  }
}

TEST(DesignLowpass, PassbandFlatStopbandDeep) {
  const double cutoff = 0.125;
  const fvec taps = design_lowpass(201, cutoff);
  const fvec resp = power_response(cspan{to_complex(taps)}, 2048);
  // Passband (well below cutoff): within 1 dB of unity.
  for (std::size_t k = 0; k < static_cast<std::size_t>(0.8 * cutoff * 2048); ++k) {
    EXPECT_GT(linear_to_db(resp[k]), -1.0) << "bin " << k;
  }
  // Stopband (well above cutoff): below -55 dB.
  for (std::size_t k = static_cast<std::size_t>(1.4 * cutoff * 2048); k < 1024; ++k) {
    EXPECT_LT(linear_to_db(resp[k]), -55.0) << "bin " << k;
  }
}

TEST(DesignLowpass, RejectsBadArgs) {
  EXPECT_THROW(design_lowpass(0, 0.1), std::invalid_argument);
  EXPECT_THROW(design_lowpass(11, 0.0), std::invalid_argument);
  EXPECT_THROW(design_lowpass(11, 0.5), std::invalid_argument);
}

TEST(LowpassPlan, RepeatCallsShareOnePlan) {
  const auto a = lowpass_plan(101, 0.2);
  const auto b = lowpass_plan(101, 0.2);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  // Any part of the key that differs is another design.
  EXPECT_NE(lowpass_plan(103, 0.2), a);
  EXPECT_NE(lowpass_plan(101, std::nextafter(0.2, 1.0)), a);
}

TEST(LowpassPlan, TapsAreTheDesignBits) {
  const fvec taps = design_lowpass(257, 0.05);
  const auto plan = lowpass_plan(257, 0.05);
  ASSERT_EQ(plan->taps.size(), taps.size());
  for (std::size_t i = 0; i < taps.size(); ++i) {
    const cf want{taps[i], 0.0F};
    EXPECT_EQ(std::memcmp(&plan->taps[i], &want, sizeof(cf)), 0) << "tap " << i;
  }
  const auto fresh = ConvolverPlan::make(to_complex(taps));
  ASSERT_EQ(plan->taps_spectrum.size(), fresh->taps_spectrum.size());
  EXPECT_EQ(std::memcmp(plan->taps_spectrum.data(), fresh->taps_spectrum.data(),
                        fresh->taps_spectrum.size() * sizeof(cf)),
            0);
}

// Threads that ask for a design no call has asked for yet, all at once,
// get one plan between them (run under TSan as well).
TEST(LowpassPlan, ConcurrentFirstUseSharesOnePlan) {
  constexpr std::size_t kThreads = 4;
  std::latch start(kThreads);
  std::vector<std::shared_ptr<const ConvolverPlan>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&start, &got, t] {
      start.arrive_and_wait();
      got[t] = lowpass_plan(1023, 0.0123);
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_NE(got[0], nullptr);
  for (const auto& plan : got) EXPECT_EQ(plan, got[0]);
}

TEST(LowpassNumTaps, MonotonicInSpecs) {
  // Narrower transitions need more taps.
  EXPECT_GT(lowpass_num_taps(0.01), lowpass_num_taps(0.05));
  EXPECT_GT(lowpass_num_taps(0.05), lowpass_num_taps(0.2));
  // Always odd, always clamped to [3, 1025].
  EXPECT_EQ(lowpass_num_taps(0.01) % 2, 1U);
  EXPECT_EQ(lowpass_num_taps(0.05) % 2, 1U);
  EXPECT_EQ(lowpass_num_taps(0.0001), 1025U);
  EXPECT_GE(lowpass_num_taps(0.49), 3U);
}

TEST(DesignExcision, NotchesTheJammerBand) {
  // Synthetic PSD: flat floor with a strong block around bin 10..20 of 256
  // (a narrow-band jammer 25 dB above the floor).
  fvec psd(256, 1.0F);
  for (std::size_t k = 10; k <= 20; ++k) psd[k] = 316.0F;
  for (std::size_t k = 236; k <= 246; ++k) psd[k] = 316.0F;  // mirrored side

  const cvec taps = design_excision_whitening(psd);
  ASSERT_EQ(taps.size(), 256U);
  const fvec resp = power_response(taps, 256);

  // Attenuation in the jammer band ~ 1/316 relative to the quiet band.
  double quiet = 0.0;
  std::size_t n_quiet = 0;
  for (std::size_t k = 40; k < 100; ++k) {
    quiet += resp[k];
    ++n_quiet;
  }
  quiet /= static_cast<double>(n_quiet);
  for (std::size_t k = 12; k <= 18; ++k) {
    EXPECT_LT(resp[k] / quiet, 0.02) << "bin " << k;  // > 17 dB notch
  }
}

TEST(DesignExcision, PassbandRestriction) {
  fvec psd(128, 1.0F);
  const cvec taps = design_excision_whitening(psd, 0.5);
  const fvec resp = power_response(taps, 128);
  // Outside +-0.25 cycles/sample the response must be heavily suppressed.
  for (std::size_t k = 40; k <= 88; ++k) {
    if (k == 64) continue;  // wrap midpoint
    EXPECT_LT(resp[k], 0.05F) << "bin " << k;
  }
  // Inside the passband it should be near unity.
  EXPECT_NEAR(resp[5], 1.0F, 0.3F);
}

TEST(DesignExcision, GroupDelayIsHalfLength) {
  // Feed an impulse through the filter designed from a flat PSD: the
  // response must peak at delay K/2.
  fvec psd(64, 1.0F);
  const cvec taps = design_excision_whitening(psd);
  std::size_t peak = 0;
  float best = 0.0F;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    if (std::abs(taps[i]) > best) {
      best = std::abs(taps[i]);
      peak = i;
    }
  }
  EXPECT_EQ(peak, 32U);
}

TEST(DesignExcision, RejectsBadArgs) {
  EXPECT_THROW(design_excision_whitening(fvec(100, 1.0F)), std::invalid_argument);
  EXPECT_THROW(design_excision_whitening(fvec(64, 0.0F)), std::invalid_argument);
  EXPECT_THROW(design_excision_whitening(fvec(64, 1.0F), 0.0), std::invalid_argument);
}

TEST(FrequencyResponse, MatchesAnalyticForTwoTaps) {
  // h = [1, 1]: |H(f)|^2 = 4 cos^2(pi f).
  const cvec taps = {cf{1.0F, 0.0F}, cf{1.0F, 0.0F}};
  const fvec resp = power_response(taps, 64);
  for (std::size_t k = 0; k < 64; ++k) {
    const double f = static_cast<double>(k) / 64.0;
    const double expected = 4.0 * std::pow(std::cos(std::numbers::pi * f), 2);
    EXPECT_NEAR(resp[k], expected, 1e-3) << "bin " << k;
  }
}

}  // namespace
}  // namespace bhss::dsp
