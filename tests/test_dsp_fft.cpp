// Unit tests for the radix-2 FFT: impulse/DC responses, linearity against
// a naive DFT, Parseval's theorem, round-trip inversion, and the exact
// output bits on a fixed input.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <random>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/simd/simd.hpp"

namespace bhss::dsp {
namespace {

cvec random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  cvec x(n);
  for (cf& v : x) v = cf{dist(rng), dist(rng)};
  return x;
}

cvec naive_dft(cspan x) {
  const std::size_t n = x.size();
  cvec out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) *
                         static_cast<double>(j) / static_cast<double>(n);
      acc += std::complex<double>(x[j]) * std::polar(1.0, ang);
    }
    out[k] = cf{static_cast<float>(acc.real()), static_cast<float>(acc.imag())};
  }
  return out;
}

TEST(Fft, ValidSize) {
  EXPECT_TRUE(Fft::valid_size(2));
  EXPECT_TRUE(Fft::valid_size(1024));
  EXPECT_FALSE(Fft::valid_size(0));
  EXPECT_FALSE(Fft::valid_size(1));
  EXPECT_FALSE(Fft::valid_size(3));
  EXPECT_FALSE(Fft::valid_size(96));
}

TEST(Fft, RejectsInvalidSize) {
  EXPECT_THROW(Fft(0), std::invalid_argument);
  EXPECT_THROW(Fft(7), std::invalid_argument);
  // A power of two whose indices overflow the plan's 32-bit swap list.
  if constexpr (sizeof(std::size_t) > 4) {
    EXPECT_THROW(Fft(std::size_t{1} << 33), std::invalid_argument);
  }
}

TEST(Fft, ImpulseIsFlat) {
  Fft fft(64);
  cvec x(64, cf{0.0F, 0.0F});
  x[0] = cf{1.0F, 0.0F};
  fft.forward(cspan_mut{x});
  for (const cf& v : x) {
    EXPECT_NEAR(v.real(), 1.0F, 1e-5);
    EXPECT_NEAR(v.imag(), 0.0F, 1e-5);
  }
}

TEST(Fft, DcGoesToBinZero) {
  Fft fft(32);
  cvec x(32, cf{1.0F, 0.0F});
  fft.forward(cspan_mut{x});
  EXPECT_NEAR(x[0].real(), 32.0F, 1e-4);
  for (std::size_t k = 1; k < 32; ++k) EXPECT_NEAR(std::abs(x[k]), 0.0F, 1e-4);
}

TEST(Fft, ToneLandsInRightBin) {
  const std::size_t n = 128;
  const std::size_t bin = 5;
  Fft fft(n);
  cvec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = 2.0 * std::numbers::pi * static_cast<double>(bin) *
                       static_cast<double>(i) / static_cast<double>(n);
    x[i] = cf{static_cast<float>(std::cos(ang)), static_cast<float>(std::sin(ang))};
  }
  fft.forward(cspan_mut{x});
  EXPECT_NEAR(std::abs(x[bin]), static_cast<float>(n), 1e-3);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != bin) {
      EXPECT_NEAR(std::abs(x[k]), 0.0F, 1e-3) << "bin " << k;
    }
  }
}

class FftVsNaive : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftVsNaive, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  const cvec x = random_signal(n, 42);
  const cvec expected = naive_dft(x);
  Fft fft(n);
  const cvec got = fft.forward_copy(x);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(got[k].real(), expected[k].real(), 2e-3 * static_cast<float>(n));
    EXPECT_NEAR(got[k].imag(), expected[k].imag(), 2e-3 * static_cast<float>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftVsNaive, ::testing::Values(2, 4, 8, 16, 32, 64, 256));

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseUndoesForward) {
  const std::size_t n = GetParam();
  const cvec original = random_signal(n, 7);
  cvec x = original;
  Fft fft(n);
  fft.forward(cspan_mut{x});
  fft.inverse(cspan_mut{x});
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real(), original[i].real(), 1e-4);
    EXPECT_NEAR(x[i].imag(), original[i].imag(), 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(2, 8, 64, 512, 4096));

TEST(Fft, Parseval) {
  const std::size_t n = 256;
  const cvec x = random_signal(n, 3);
  double time_energy = 0.0;
  for (const cf& v : x) time_energy += std::norm(v);
  Fft fft(n);
  const cvec spec = fft.forward_copy(x);
  double freq_energy = 0.0;
  for (const cf& v : spec) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, time_energy * 1e-4);
}

TEST(Fft, ForwardCopyZeroPads) {
  Fft fft(16);
  cvec x(4, cf{1.0F, 0.0F});
  const cvec spec = fft.forward_copy(x);
  ASSERT_EQ(spec.size(), 16U);
  EXPECT_NEAR(spec[0].real(), 4.0F, 1e-5);
}

/// A fixed input that no library distribution shapes: 24-bit words of the
/// in-tree MT19937-64, each an exact float in [-1, 1).
cvec pinned_input(std::size_t n) {
  simd::Mt19937_64 eng(0xF17ED);
  cvec x(n);
  for (cf& v : x) {
    const float re = static_cast<float>(eng() >> 40) * 0x1p-23F - 1.0F;
    const float im = static_cast<float>(eng() >> 40) * 0x1p-23F - 1.0F;
    v = cf{re, im};
  }
  return x;
}

std::vector<std::uint32_t> float_words(const cvec& x) {
  std::vector<std::uint32_t> words(2 * x.size());
  std::memcpy(words.data(), x.data(), words.size() * sizeof(std::uint32_t));
  return words;
}

/// FNV-1a 64 over the float words, least significant byte first.
std::uint64_t fnv1a(const cvec& x) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::uint32_t w : float_words(x)) {
    for (int b = 0; b < 4; ++b) {
      h ^= (w >> (8 * b)) & 0xFFU;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

TEST(Fft, TransformIsPinned) {
  // The exact output bits of both directions, so a change to the twiddles,
  // the permutation or the butterfly arithmetic fails in every build,
  // scalar or vector: the n = 8 words in full, larger sizes by digest.
  const std::vector<std::uint32_t> forward8 = {
      0xBF7F232E, 0xBFB6F653, 0xBE852EB9, 0x3E15D428, 0x3F3D83B6, 0x3F968090,
      0x3F48DD1A, 0x3FED5581, 0x40589968, 0xBF879723, 0x3D325F88, 0x4011A0D4,
      0x402ED8F4, 0x3F8EBF5A, 0x3FB6C9C9, 0x3E002DA8};
  const std::vector<std::uint32_t> inverse8 = {
      0xBDFF232E, 0xBE36F653, 0x3E36C9C9, 0x3C802DA8, 0x3EAED8F4, 0x3E0EBF5A,
      0x3BB25F88, 0x3E91A0D4, 0x3ED89968, 0xBE079723, 0x3DC8DD1A, 0x3E6D5581,
      0x3DBD83B6, 0x3E168090, 0xBD052EB9, 0x3C95D428};
  struct Pin {
    std::size_t n;
    bool inverse;
    std::uint64_t digest;
  };
  const std::vector<Pin> pins = {
      {8, false, 0xCC97CD7FA612D8F7ULL},    {8, true, 0xA8D3031A9195964CULL},
      {1024, false, 0x07317FB7CC76F17CULL}, {1024, true, 0x48AB977AC617CF12ULL},
      {16384, false, 0xF9212589542B0823ULL}, {16384, true, 0xF9081686ED5B3249ULL},
  };
  for (const Pin& pin : pins) {
    cvec x = pinned_input(pin.n);
    const Fft fft(pin.n);
    if (pin.inverse) {
      fft.inverse(cspan_mut{x});
    } else {
      fft.forward(cspan_mut{x});
    }
    EXPECT_EQ(fnv1a(x), pin.digest)
        << "n=" << pin.n << " inverse=" << pin.inverse << " isa=" << simd::active_isa();
    if (pin.n == 8) {
      EXPECT_EQ(float_words(x), pin.inverse ? inverse8 : forward8);
    }
  }
}

TEST(FftShift, SwapsHalves) {
  const fvec x = {0.0F, 1.0F, 2.0F, 3.0F};
  const fvec shifted = fft_shift(x);
  const fvec expected = {2.0F, 3.0F, 0.0F, 1.0F};
  EXPECT_EQ(shifted, expected);
}

}  // namespace
}  // namespace bhss::dsp
