// Bit-exactness suite for the explicitly vectorized DSP kernels
// (src/dsp/simd). Every dispatched kernel must produce the SAME IEEE-754
// bits as its scalar reference, `simd::scalar::*` in scalar_kernels.hpp —
// not merely close — because the vector layer sits underneath golden
// decision traces, the shard-merge byte-identity contract and the
// seed-equivalence 1-ulp pins. Each kernel is swept across lengths
// 1..3*lane_width+1 (exercising every AVX2 tail remainder; the FFT stages,
// whose sizes are powers of two, across every n up to 65536) and across
// unaligned buffer offsets (no kernel may assume 32-byte alignment:
// callers pass arbitrary subspans of hop slices). Where the dispatch runs
// the reference itself (a scalar build, or a CPU without AVX2) the
// comparisons hold trivially; ActiveIsaIsConsistent pins which one ran.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "dsp/fir.hpp"
#include "dsp/simd/scalar_kernels.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/types.hpp"
#include "phy/chip_table.hpp"

namespace bhss::dsp {
namespace {

constexpr std::size_t kMaxLen = 25;      // 3 * 8 (AVX2 lanes) + 1
constexpr std::size_t kMaxOffset = 3;    // element offsets off natural alignment

std::mt19937& rng() {
  static std::mt19937 gen(0xB1755EEDU);
  return gen;
}

float rand_float() {
  static std::normal_distribution<float> dist(0.0F, 1.0F);
  return dist(rng());
}

/// A buffer of n values placed at an element offset from a fresh
/// allocation, so the kernel under test sees deliberately misaligned data.
template <typename T>
struct Offset {
  std::vector<T> store;
  T* p;
  Offset(std::size_t n, std::size_t off) : store(n + off), p(store.data() + off) {}
};

void fill(cf* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) p[i] = cf{rand_float(), rand_float()};
}
void fill(float* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) p[i] = rand_float();
}

/// Bitwise comparison: equal bits, not equal values (catches -0 vs +0 and
/// would catch any FMA/reassociation drift a tolerance check forgives).
/// One failure per call, naming the first mismatch and the count.
void expect_same_bits(const cf* a, const cf* b, std::size_t n, const std::string& what) {
  std::size_t mismatches = 0;
  std::size_t first = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(cf)) != 0 && mismatches++ == 0) first = i;
  }
  if (mismatches == 0) return;
  ADD_FAILURE() << what << ": " << mismatches << " of " << n << " differ, first at " << first
                << " (" << a[first].real() << "," << a[first].imag() << ") vs ("
                << b[first].real() << "," << b[first].imag() << ")";
}

// The dispatch enters a vector unit exactly when the build compiled it
// and the CPU runs it. A dispatch that never left the scalar reference
// would pass every *MatchesScalarBitExact case below, comparing the
// reference with itself; this pins which kernels ran.
TEST(DspSimd, ActiveIsaIsConsistent) {
#if defined(BHSS_SIMD_AVX2)
  const std::string want = __builtin_cpu_supports("avx2") != 0 ? "avx2" : "scalar";
#else
  const std::string want = "scalar";
#endif
  EXPECT_EQ(simd::active_isa(), want);
}

TEST(DspSimd, FirFilterBlockMatchesScalarBitExact) {
  for (std::size_t n_taps : {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{17}}) {
    for (std::size_t n_out = 1; n_out <= kMaxLen; ++n_out) {
      for (std::size_t off = 0; off <= kMaxOffset; ++off) {
        Offset<cf> taps(n_taps, off);
        Offset<cf> x(n_out + n_taps - 1, off);
        fill(taps.p, n_taps);
        fill(x.p, n_out + n_taps - 1);
        std::vector<cf> got(n_out);
        std::vector<cf> want(n_out);
        simd::fir_filter_block(taps.p, n_taps, x.p, got.data(), n_out);
        simd::scalar::fir_filter_block(taps.p, n_taps, x.p, want.data(), n_out);
        expect_same_bits(got.data(), want.data(), n_out,
                         "fir_filter_block taps=" + std::to_string(n_taps) +
                             " n=" + std::to_string(n_out) + " off=" + std::to_string(off));
      }
    }
  }
}

TEST(DspSimd, FirDecimateRealMatchesScalarBitExact) {
  for (std::size_t stride : {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{5}}) {
    for (std::size_t n_taps : {std::size_t{1}, std::size_t{4}, std::size_t{8}, std::size_t{9}}) {
      for (std::size_t n_out = 1; n_out <= kMaxLen; ++n_out) {
        for (std::size_t off = 0; off <= kMaxOffset; ++off) {
          Offset<float> taps(n_taps, off);
          Offset<cf> x((n_out - 1) * stride + n_taps, off);
          fill(taps.p, n_taps);
          fill(x.p, (n_out - 1) * stride + n_taps);
          std::vector<cf> got(n_out);
          std::vector<cf> want(n_out);
          simd::fir_decimate_real(taps.p, n_taps, x.p, got.data(), n_out, stride);
          simd::scalar::fir_decimate_real(taps.p, n_taps, x.p, want.data(), n_out, stride);
          expect_same_bits(got.data(), want.data(), n_out,
                           "fir_decimate_real stride=" + std::to_string(stride) +
                               " taps=" + std::to_string(n_taps) + " n=" + std::to_string(n_out) +
                               " off=" + std::to_string(off));
        }
      }
    }
  }
}

TEST(DspSimd, CorrelateLagsMatchesScalarBitExact) {
  for (std::size_t n_ref : {std::size_t{1}, std::size_t{5}, std::size_t{16}}) {
    for (std::size_t n_lags = 1; n_lags <= kMaxLen; ++n_lags) {
      for (std::size_t off = 0; off <= kMaxOffset; ++off) {
        Offset<cf> x(n_lags - 1 + n_ref, off);
        Offset<cf> ref(n_ref, off);
        fill(x.p, n_lags - 1 + n_ref);
        fill(ref.p, n_ref);
        std::vector<cf> got(n_lags);
        std::vector<cf> want(n_lags);
        simd::correlate_lags(x.p, ref.p, n_ref, got.data(), n_lags);
        simd::scalar::correlate_lags(x.p, ref.p, n_ref, want.data(), n_lags);
        expect_same_bits(got.data(), want.data(), n_lags,
                         "correlate_lags ref=" + std::to_string(n_ref) +
                             " lags=" + std::to_string(n_lags) + " off=" + std::to_string(off));
      }
    }
  }
}

TEST(DspSimd, DespreadCorrelate16MatchesScalarBitExact) {
  const float* cols = phy::ChipTable::instance().columns();
  for (std::size_t n_pairs : {std::size_t{1}, std::size_t{7}, std::size_t{16}}) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      Offset<cf> pairs(n_pairs, off);
      Offset<float> se(n_pairs, off);
      Offset<float> so(n_pairs, off);
      fill(pairs.p, n_pairs);
      fill(se.p, n_pairs);
      fill(so.p, n_pairs);
      std::array<cf, phy::kNumSymbols> got{};
      std::array<cf, phy::kNumSymbols> want{};
      simd::despread_correlate16(pairs.p, n_pairs, se.p, so.p, cols, got.data());
      simd::scalar::despread_correlate16(pairs.p, n_pairs, se.p, so.p, cols, want.data());
      expect_same_bits(got.data(), want.data(), phy::kNumSymbols,
                       "despread_correlate16 pairs=" + std::to_string(n_pairs) +
                           " off=" + std::to_string(off));
    }
  }
}

/// Overwrite every 5th value from `first` on with one of the inputs IEEE
/// treats apart: signed zeros (u + t and u - t keep or lose the sign of a
/// zero) and subnormals (no flush to zero on either path).
void salt_specials(cf* p, std::size_t n, std::size_t first) {
  constexpr std::array<float, 6> kSpecials = {0.0F,          -0.0F,           0x1p-149F,
                                              -0x1.8p-130F, 0x1.fffffcp-127F, -0x1p-140F};
  for (std::size_t i = first; i < n; i += 5) {
    p[i] = cf{kSpecials[i % kSpecials.size()], kSpecials[(i / 5) % kSpecials.size()]};
  }
}

TEST(DspSimd, FftStagesMatchScalarBitExact) {
  // Every power of two from 2 to 65536: the n = 2 and n = 4 edges, then
  // both parities of the number of half >= 4 stages (AVX2 runs an odd
  // one alone and the rest two per pass). Twiddles are arbitrary values:
  // the kernel contract holds for any table. The salt starts past tw[0],
  // which alone drives the half = 1 stage: a zero there would hide that
  // stage's add/sub lanes behind t = 0.
  for (std::size_t n = 2; n <= 65536; n *= 2) {
    for (bool inverse : {false, true}) {
      for (std::size_t off = 0; off <= kMaxOffset; ++off) {
        Offset<cf> x(n, off);
        Offset<cf> tw(n - 1, off);
        fill(x.p, n);
        fill(tw.p, n - 1);
        salt_specials(x.p, n, off);
        salt_specials(tw.p, n - 1, off + 1);
        std::vector<cf> want(x.p, x.p + n);
        simd::fft_stages(x.p, n, tw.p, inverse);
        simd::scalar::fft_stages(want.data(), n, tw.p, inverse);
        expect_same_bits(x.p, want.data(), n,
                         "fft_stages n=" + std::to_string(n) + " inv=" + std::to_string(inverse) +
                             " off=" + std::to_string(off));
      }
    }
  }
}

TEST(DspSimd, ElementwiseKernelsMatchScalarBitExact) {
  for (std::size_t n = 1; n <= kMaxLen; ++n) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      Offset<cf> a(n, off);
      Offset<cf> b(n, off);
      Offset<float> w(n, off);
      fill(a.p, n);
      fill(b.p, n);
      fill(w.p, n);
      const float s = rand_float();
      const float pa = rand_float();
      const float pb = rand_float();
      const std::string suffix = " n=" + std::to_string(n) + " off=" + std::to_string(off);

      std::vector<cf> a2(a.p, a.p + n);
      simd::cmul_inplace(a.p, b.p, n);
      simd::scalar::cmul_inplace(a2.data(), b.p, n);
      expect_same_bits(a.p, a2.data(), n, "cmul_inplace" + suffix);

      std::vector<cf> a3(a.p, a.p + n);
      simd::scale_inplace(a.p, s, n);
      simd::scalar::scale_inplace(a3.data(), s, n);
      expect_same_bits(a.p, a3.data(), n, "scale_inplace" + suffix);

      std::vector<cf> got(n);
      std::vector<cf> want(n);
      simd::window_apply(b.p, w.p, got.data(), n);
      simd::scalar::window_apply(b.p, w.p, want.data(), n);
      expect_same_bits(got.data(), want.data(), n, "window_apply" + suffix);

      // window_apply documents that out may alias x.
      std::vector<cf> alias(b.p, b.p + n);
      simd::window_apply(alias.data(), w.p, alias.data(), n);
      expect_same_bits(alias.data(), want.data(), n, "window_apply aliased" + suffix);

      simd::scale_pulse(pa, pb, w.p, got.data(), n);
      simd::scalar::scale_pulse(pa, pb, w.p, want.data(), n);
      expect_same_bits(got.data(), want.data(), n, "scale_pulse" + suffix);
    }
  }
}

/// The block path of FirFilter (which feeds fir_filter_block and rebuilds
/// the doubled delay line afterwards) must be indistinguishable from the
/// per-sample streaming path — including across a *sequence* of blocks of
/// awkward lengths, which exercises the history handoff between calls.
TEST(DspSimd, FirFilterBlockPathMatchesStreamingBitExact) {
  for (std::size_t n_taps : {std::size_t{1}, std::size_t{7}, std::size_t{16}, std::size_t{33}}) {
    cvec taps(n_taps);
    fill(taps.data(), n_taps);
    FirFilter block_path{taps};
    FirFilter stream_path{taps};
    for (std::size_t block_len : {std::size_t{1}, std::size_t{2}, std::size_t{5}, std::size_t{0},
                                  std::size_t{31}, std::size_t{64}, std::size_t{3}}) {
      cvec in(block_len);
      fill(in.data(), block_len);
      const cvec got = block_path.process(cspan{in});
      cvec want(block_len);
      for (std::size_t i = 0; i < block_len; ++i) want[i] = stream_path.process(in[i]);
      expect_same_bits(got.data(), want.data(), block_len,
                       "FirFilter block taps=" + std::to_string(n_taps) +
                           " len=" + std::to_string(block_len));
    }
  }
}

// ------------------------------------------------ Gaussian noise stream

TEST(DspSimd, Mt19937_64MatchesTheStandard) {
  // [rand.predef]: the 10000th output of a default-constructed
  // mt19937_64 (seed 5489).
  simd::Mt19937_64 eng(5489);
  std::uint64_t v = 0;
  for (int i = 0; i < 10000; ++i) v = eng();
  EXPECT_EQ(v, 9981545732273789042ULL);

  std::mt19937_64 ref(0x5EED);
  simd::Mt19937_64 mine(0x5EED);
  for (int i = 0; i < 2000; ++i) ASSERT_EQ(mine(), ref()) << "output " << i;
}

void expect_same_engine(const simd::Mt19937_64& a, const simd::Mt19937_64& b,
                        const std::string& what) {
  EXPECT_EQ(a.next, b.next) << what;
  EXPECT_EQ(a.words, b.words) << what;
}

TEST(DspSimd, GaussianCfMatchesScalarBitExact) {
  for (std::size_t n : {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 255, 256, 257, 311, 312, 313, 1000,
                        5000}) {
    simd::Mt19937_64 a(n + 1);
    simd::Mt19937_64 b(n + 1);
    std::vector<cf> got(n);
    std::vector<cf> want(n);
    simd::gaussian_cf(a, got.data(), n);
    simd::scalar::gaussian_cf(b, want.data(), n);
    expect_same_bits(got.data(), want.data(), n, "gaussian_cf n=" + std::to_string(n));
    expect_same_engine(a, b, "n=" + std::to_string(n));
  }
}

TEST(DspSimd, GaussianCfSplitsLikeOneCall) {
  // Any split of the stream into calls gives the same samples and leaves
  // the engine where one call leaves it.
  const std::vector<std::size_t> splits = {1, 0, 300, 3, 257, 8, 1024, 5, 311, 2};
  std::size_t total = 0;
  for (std::size_t s : splits) total += s;
  simd::Mt19937_64 whole(99);
  simd::Mt19937_64 parts(99);
  std::vector<cf> want(total);
  std::vector<cf> got(total);
  simd::scalar::gaussian_cf(whole, want.data(), total);
  std::size_t pos = 0;
  for (std::size_t s : splits) {
    simd::gaussian_cf(parts, got.data() + pos, s);
    pos += s;
  }
  expect_same_bits(got.data(), want.data(), total, "gaussian_cf split");
  expect_same_engine(parts, whole, "split");
}

/// The state word whose tempered output is `z` (tempering inverted step
/// by step; the left-shift and right-shift steps by fixed-point iteration).
std::uint64_t untemper(std::uint64_t z) {
  z ^= z >> 43;
  z ^= (z << 37) & 0xFFF7EEE000000000ULL;
  std::uint64_t y = z;
  for (int i = 0; i < 4; ++i) y = z ^ ((y << 17) & 0x71D67FFFEDA60000ULL);
  z = y;
  for (int i = 0; i < 3; ++i) y = z ^ ((y >> 29) & 0x5555555555555555ULL);
  return y;
}

constexpr std::uint64_t kP53 = std::uint64_t{1} << 53;
constexpr std::uint64_t kP63 = std::uint64_t{1} << 63;
constexpr std::uint64_t kMax64 = ~std::uint64_t{0};

/// Words at the edges of the canonical step: the double-exact range, the
/// top of the range (rounds to 2^64 and must clamp), and words >= 2^53
/// whose rounding is decided by bits below 2^11 alone (sticky bits).
const std::vector<std::uint64_t> kEdgeWords = {
    0, kP53 - 1, kP53, kP53 + 1, kP63, kMax64,
    kP63 | (std::uint64_t{1} << 39) | 1,             // tie + sticky: rounds up
    kP63 | (std::uint64_t{1} << 39) | 0x400,         // tie + sticky: rounds up
    kP63 | (std::uint64_t{1} << 39),                 // exact tie: to even (down)
    (std::uint64_t{1} << 54) | (std::uint64_t{1} << 30) | 1,
    kP53 | 0x7FF, kP63 | 1, kMax64 - 0x7FF, 0x7FF};

#if defined(__GLIBCXX__)
/// A URBG that returns one fixed word: feeds generate_canonical directly.
struct FixedWord {
  using result_type = std::uint64_t;
  std::uint64_t word;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return word; }
};
#endif

TEST(DspSimd, CanonicalStepAtTheEdges) {
  const float below_one = std::nextafter(1.0F, 0.0F);
  EXPECT_EQ(simd::detail::canonical_float(0), 0.0F);
  EXPECT_EQ(simd::detail::canonical_float(kP53 - 1), 0x1p-11F);  // rounds up to 2^53
  EXPECT_EQ(simd::detail::canonical_float(kP53), 0x1p-11F);
  EXPECT_EQ(simd::detail::canonical_float(kP53 + 1), 0x1p-11F);
  EXPECT_EQ(simd::detail::canonical_float(kP63), 0.5F);
  EXPECT_EQ(simd::detail::canonical_float(kMax64), below_one);
  EXPECT_EQ(simd::detail::canonical_float(kP63 | (std::uint64_t{1} << 39) | 1),
            0.5F + 0x1p-24F);
  EXPECT_EQ(simd::detail::canonical_float(kP63 | (std::uint64_t{1} << 39)), 0.5F);
#if defined(__GLIBCXX__)
  for (std::uint64_t w : kEdgeWords) {
    FixedWord g{w};
    const float want =
        std::generate_canonical<float, std::numeric_limits<float>::digits>(g);
    EXPECT_EQ(simd::detail::canonical_float(w), want) << std::hex << w;
  }
#endif
}

TEST(DspSimd, GaussianCfEdgeWordsMatchScalarBitExact) {
  // Plant the edge words at the engine's read position, as x paired with
  // a y of exactly 0 (word 2^63), with itself and with its neighbour, so
  // they reach every lane of the vector path. (0, 2^63) gives x = -1,
  // r2 = 1: m = sqrt(-0.0) = -0, which the `+ 0` step must turn into +0;
  // (2^63, 2^63) gives r2 = 0 and must be rejected.
  simd::Mt19937_64 planted(2024);
  std::size_t k = 0;
  for (std::size_t i = 0; i < kEdgeWords.size(); ++i) {
    for (std::uint64_t y : {kP63, kEdgeWords[i], kEdgeWords[(i + 1) % kEdgeWords.size()]}) {
      planted.words[k++] = untemper(kEdgeWords[i]);
      planted.words[k++] = untemper(y);
    }
  }
  planted.next = 0;
  simd::Mt19937_64 probe = planted;
  for (std::size_t i = 0; i < kEdgeWords.size(); ++i) {
    ASSERT_EQ(probe(), kEdgeWords[i]) << "untemper round trip";
    (void)probe();
    for (int j = 0; j < 4; ++j) (void)probe();
  }

  constexpr std::size_t n = 64;
  simd::Mt19937_64 a = planted;
  simd::Mt19937_64 b = planted;
  std::vector<cf> got(n);
  std::vector<cf> want(n);
  simd::gaussian_cf(a, got.data(), n);
  simd::scalar::gaussian_cf(b, want.data(), n);
  expect_same_bits(got.data(), want.data(), n, "gaussian_cf edge words");
  expect_same_engine(a, b, "edge words");

  // The first attempt is (0, 2^63): accepted with r2 = 1, both rails +0.
  const cf zero{0.0F, 0.0F};
  EXPECT_EQ(std::memcmp(&want[0], &zero, sizeof(cf)), 0);
}

}  // namespace
}  // namespace bhss::dsp
