// Equivalence tests pinning the optimised overlap-save path to the seed
// implementation it replaced: ConvolverPlan::filter, whose block scratch
// is reused per thread, against the original allocate-per-call
// overlap-save. The rewrite performs the same arithmetic in the same
// order, so the tolerance is 1 ulp (and in practice the outputs are
// bit-identical).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>

#include "dsp/fft.hpp"
#include "dsp/fir.hpp"

namespace bhss::dsp {
namespace {

cvec random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  cvec x(n);
  for (cf& v : x) v = cf{dist(rng), dist(rng)};
  return x;
}

/// |a - b| in units in the last place, via the monotone integer mapping of
/// IEEE-754 bit patterns.
std::int64_t ulp_diff(float a, float b) {
  if (a == b) return 0;
  if (!std::isfinite(a) || !std::isfinite(b)) return std::numeric_limits<std::int64_t>::max();
  const auto ordered = [](float f) {
    static_assert(sizeof(float) == sizeof(std::int32_t));
    std::int32_t i = 0;
    std::memcpy(&i, &f, sizeof(f));
    return (i >= 0) ? static_cast<std::int64_t>(i)
                    : static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::min()) - i;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

void expect_within_one_ulp(const cvec& a, const cvec& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(ulp_diff(a[i].real(), b[i].real()), 1) << "sample " << i << " (re)";
    EXPECT_LE(ulp_diff(a[i].imag(), b[i].imag()), 1) << "sample " << i << " (im)";
  }
}

// ----------------------------------------------------- seed implementation
// Verbatim copy of the pre-optimisation overlap-save loop, kept here as
// the reference the production code is pinned to.

class SeedFftConvolver {
 public:
  explicit SeedFftConvolver(cspan taps)
      : num_taps_(taps.size()),
        fft_size_(next_pow2(std::max<std::size_t>(4 * taps.size(), 1024))),
        block_size_(fft_size_ - num_taps_ + 1),
        fft_(fft_size_) {
    taps_spectrum_ = fft_.forward_copy(taps);
  }

  cvec filter(cspan x) const {
    cvec out(x.size());
    cvec block(fft_size_);
    const std::size_t overlap = num_taps_ - 1;
    for (std::size_t pos = 0; pos < x.size(); pos += block_size_) {
      for (std::size_t i = 0; i < fft_size_; ++i) {
        const auto global =
            static_cast<std::ptrdiff_t>(pos + i) - static_cast<std::ptrdiff_t>(overlap);
        block[i] = (global >= 0 && global < static_cast<std::ptrdiff_t>(x.size()))
                       ? x[static_cast<std::size_t>(global)]
                       : cf{0.0F, 0.0F};
      }
      fft_.forward(cspan_mut{block});
      for (std::size_t i = 0; i < fft_size_; ++i) block[i] *= taps_spectrum_[i];
      fft_.inverse(cspan_mut{block});
      const std::size_t n_valid = std::min(block_size_, x.size() - pos);
      for (std::size_t i = 0; i < n_valid; ++i) out[pos + i] = block[overlap + i];
    }
    return out;
  }

 private:
  static std::size_t next_pow2(std::size_t n) {
    std::size_t p = 2;
    while (p < n) p <<= 1;
    return p;
  }

  std::size_t num_taps_;
  std::size_t fft_size_;
  std::size_t block_size_;
  Fft fft_;
  cvec taps_spectrum_;
};

// -------------------------------------------------------------- ConvolverPlan

class ConvolverEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConvolverEquivalence, WorkspaceReuseMatchesSeedPerCallAllocation) {
  const std::size_t n_taps = GetParam();
  const cvec taps = random_signal(n_taps, 100U + static_cast<unsigned>(n_taps));
  const auto plan = ConvolverPlan::make(taps);
  const SeedFftConvolver seed{cspan{taps}};
  // Several lengths through the SAME plan and thread scratch: a stale
  // workspace would leak one call's tail into the next.
  for (const std::size_t len : {std::size_t{1}, std::size_t{63}, std::size_t{1024},
                                std::size_t{4097}, std::size_t{300}}) {
    const cvec x = random_signal(len, 200U + static_cast<unsigned>(len));
    cvec out(len);
    plan->filter(x, 0, out);
    expect_within_one_ulp(out, seed.filter(x));
  }
}

TEST_P(ConvolverEquivalence, CallerBufferOverloadMatches) {
  // A window into a caller's buffer: the seed's samples from 100 on.
  const std::size_t n_taps = GetParam();
  const cvec taps = random_signal(n_taps, 42);
  const auto plan = ConvolverPlan::make(taps);
  const SeedFftConvolver seed{cspan{taps}};
  const cvec x = random_signal(2000, 43);
  cvec out(x.size() - 100);
  plan->filter(x, 100, out);
  const cvec want = seed.filter(x);
  expect_within_one_ulp(out, cvec(want.begin() + 100, want.end()));
}

INSTANTIATE_TEST_SUITE_P(TapCounts, ConvolverEquivalence,
                         ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{7},
                                           std::size_t{33}, std::size_t{256},
                                           std::size_t{1025}),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace bhss::dsp
