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
// The two kernels with an AVX-512 body are also swept tier by tier
// (tiers.hpp), so the AVX2 body that the dispatch passes over on an
// AVX-512 host is still held to the reference there; a tier this build
// or CPU cannot run skips with the reason.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "dsp/simd/scalar_kernels.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/simd/tiers.hpp"
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
// reference with itself; this pins which kernels ran: every kernel's
// tier, and that of correlate_lags and gaussian_cf, which have an
// AVX-512 body.
TEST(DspSimd, ActiveIsaIsConsistent) {
#if defined(BHSS_SIMD_AVX2)
  const std::string want = __builtin_cpu_supports("avx2") != 0 ? "avx2" : "scalar";
#else
  const std::string want = "scalar";
#endif
#if defined(BHSS_SIMD_AVX512)
  const bool avx512 = want == "avx2" && __builtin_cpu_supports("avx512f") != 0 &&
                      __builtin_cpu_supports("avx512dq") != 0;
  const std::string want_wide = avx512 ? "avx512" : want;
#else
  const std::string want_wide = want;
#endif
  EXPECT_EQ(simd::active_isa(), want);
  EXPECT_EQ(simd::wide_isa(), want_wide) << "correlate_lags and gaussian_cf";
}

/// "" where this build and CPU run the avx2:: bodies, else why not.
std::string avx2_unavailable() {
#if defined(BHSS_SIMD_AVX2)
  return simd::avx2_runs() ? "" : "the CPU does not report AVX2";
#else
  return "this build compiled no AVX2 unit";
#endif
}

/// "" where this build and CPU run the avx512:: bodies, else why not.
std::string avx512_unavailable() {
#if defined(BHSS_SIMD_AVX512)
  return simd::avx512_runs() ? "" : "the CPU does not report AVX2, AVX-512F and AVX-512DQ";
#else
  return "this build compiled no AVX-512 unit";
#endif
}

using CorrelateLagsFn = void (*)(const cf*, const cf*, std::size_t, cf*, std::size_t);
using GaussianCfFn = void (*)(simd::Mt19937_64&, cf*, std::size_t);

#if defined(BHSS_SIMD_AVX2)
constexpr CorrelateLagsFn kAvx2CorrelateLags = simd::avx2::correlate_lags;
constexpr GaussianCfFn kAvx2GaussianCf = simd::avx2::gaussian_cf;
#else
constexpr CorrelateLagsFn kAvx2CorrelateLags = nullptr;
constexpr GaussianCfFn kAvx2GaussianCf = nullptr;
#endif
#if defined(BHSS_SIMD_AVX512)
constexpr CorrelateLagsFn kAvx512CorrelateLags = simd::avx512::correlate_lags;
constexpr GaussianCfFn kAvx512GaussianCf = simd::avx512::gaussian_cf;
#else
constexpr CorrelateLagsFn kAvx512CorrelateLags = nullptr;
constexpr GaussianCfFn kAvx512GaussianCf = nullptr;
#endif

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

// Lags 1..72 reach two 32-lag blocks and every masked tail: of one
// 8-lag group with one or two AVX2 accumulators live, and of one to four
// AVX-512 groups; references of 257 and 2049 samples end on a one-step
// strip of the exchanged stack copy (256 steps of k per strip).
void sweep_correlate_lags(CorrelateLagsFn body, const std::string& name) {
  constexpr std::size_t kMaxLags = 72;
  for (std::size_t n_ref : {std::size_t{1}, std::size_t{5}, std::size_t{16}, std::size_t{257},
                            std::size_t{2049}}) {
    for (std::size_t n_lags = 1; n_lags <= kMaxLags; ++n_lags) {
      for (std::size_t off = 0; off <= kMaxOffset; ++off) {
        Offset<cf> x(n_lags - 1 + n_ref, off);
        Offset<cf> ref(n_ref, off);
        fill(x.p, n_lags - 1 + n_ref);
        fill(ref.p, n_ref);
        std::vector<cf> got(n_lags);
        std::vector<cf> want(n_lags);
        body(x.p, ref.p, n_ref, got.data(), n_lags);
        simd::scalar::correlate_lags(x.p, ref.p, n_ref, want.data(), n_lags);
        expect_same_bits(got.data(), want.data(), n_lags,
                         name + " correlate_lags ref=" + std::to_string(n_ref) +
                             " lags=" + std::to_string(n_lags) + " off=" + std::to_string(off));
      }
    }
  }
}

TEST(DspSimd, CorrelateLagsMatchesScalarBitExact) {
  sweep_correlate_lags(simd::correlate_lags, "dispatched");
}

TEST(DspSimd, CorrelateLagsAvx2MatchesScalarBitExact) {
  if (const std::string why = avx2_unavailable(); !why.empty()) GTEST_SKIP() << why;
  sweep_correlate_lags(kAvx2CorrelateLags, "avx2");
}

TEST(DspSimd, CorrelateLagsAvx512MatchesScalarBitExact) {
  if (const std::string why = avx512_unavailable(); !why.empty()) GTEST_SKIP() << why;
  sweep_correlate_lags(kAvx512CorrelateLags, "avx512");
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
  // The dispatched transform against its reference, scalar::bit_reverse
  // then scalar::fft_stages, at every power of two from 2 to 65536: below
  // 16 the dispatch runs the reference; from 16 on, the AVX2 pass reads
  // each 16-sample cell with its bit-reversed partner (some cells are
  // their own partner at every n, distinct pairs start at n = 64), runs
  // the stages of half < 2048 block by block and, from n = 4096 on, the
  // rest over the whole array, both parities of each stage count
  // included. Twiddles are arbitrary values: the kernel contract holds
  // for any table. The salt starts past the first twiddle, which alone
  // drives the half = 1 stage: a zero there would hide that stage's
  // add/sub lanes behind t = 0.
  for (std::size_t n = 2; n <= 65536; n *= 2) {
    for (bool inverse : {false, true}) {
      for (std::size_t off = 0; off <= kMaxOffset; ++off) {
        Offset<cf> x(n, off);
        std::vector<cf> flat(n - 1);
        fill(x.p, n);
        fill(flat.data(), n - 1);
        salt_specials(x.p, n, off);
        salt_specials(flat.data(), n - 1, off + 1);
        // Stage half h's twiddle k is flat[h - 1 + k], duplicated into
        // the kernel's layout, each table at its own misalignment.
        std::vector<Offset<float>> tables;
        std::vector<const float*> tw;
        for (std::size_t h = 1; h < n; h *= 2) {
          Offset<float>& t = tables.emplace_back(4 * h, off);
          for (std::size_t k = 0; k < h; ++k) {
            t.p[2 * k] = t.p[2 * k + 1] = flat[h - 1 + k].real();
            t.p[2 * h + 2 * k] = t.p[2 * h + 2 * k + 1] = flat[h - 1 + k].imag();
          }
          tw.push_back(t.p);
        }
        std::vector<cf> want(x.p, x.p + n);
        simd::scalar::bit_reverse(want.data(), n);
        simd::scalar::fft_stages(want.data(), n, tw.data(), inverse);
        simd::fft(x.p, n, tw.data(), inverse);
        expect_same_bits(x.p, want.data(), n,
                         "fft n=" + std::to_string(n) + " inv=" + std::to_string(inverse) +
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

void expect_same_bits(const float* a, const float* b, std::size_t n, const std::string& what) {
  std::size_t mismatches = 0;
  std::size_t first = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0 && mismatches++ == 0) first = i;
  }
  if (mismatches == 0) return;
  ADD_FAILURE() << what << ": " << mismatches << " of " << n << " differ, first at " << first
                << " (" << a[first] << " vs " << b[first] << ")";
}

/// Inputs at the libm replicas' branch bounds: signed zeros, subnormals,
/// the 2^-12, 0.75 and 120 bounds of sincos with their float neighbours,
/// values around the normal range's ends, and a few ordinary ones.
std::vector<float> libm_edges() {
  std::vector<float> v;
  for (float b : {0.0F, 0x1p-149F, 0x1p-127F, 0x1p-126F, 0x1p-12F, 0.75F, 1.0F, 120.0F,
                  std::numeric_limits<float>::max()}) {
    for (float e : {std::nextafter(b, 0.0F), b, std::nextafter(b, 1e30F)}) {
      v.push_back(e);
      v.push_back(-e);
    }
  }
  for (float f : {0.3F, 2.0F, 17.3F, 100.0F, 1e6F}) v.push_back(f);
  return v;
}

/// Each edge planted at every position of a run of ordinary values, so it
/// reaches every lane of a vector group and the tail.
template <class Check>
void for_each_planted_edge(float scale, Check check) {
  for (float edge : libm_edges()) {
    for (std::size_t pos = 0; pos < 9; ++pos) {
      std::vector<float> x(9);
      for (float& v : x) v = scale * rand_float();
      x[pos] = edge;
      check(x, "edge " + std::to_string(edge) + " at " + std::to_string(pos));
    }
  }
}

TEST(DspSimd, SincosF32MatchesScalarBitExact) {
  const auto compare = [](const float* x, std::size_t n, const std::string& what) {
    std::vector<cf> got(n);
    std::vector<cf> want(n);
    simd::sincos_f32(x, got.data(), n);
    simd::scalar::sincos_f32(x, want.data(), n);
    expect_same_bits(got.data(), want.data(), n, "sincos_f32 " + what);
    for (std::size_t i = 0; i < n; ++i) {
      const cf one = simd::sincos(x[i]);
      ASSERT_EQ(std::memcmp(&one, &want[i], sizeof(cf)), 0) << "sincos " << what;
    }
  };
  // Scales that keep every lane below 0.75, below 120, or mix in lanes
  // >= 120, which send their group to the reference.
  for (float scale : {0.2F, 1.0F, 30.0F, 400.0F}) {
    for (std::size_t n = 1; n <= kMaxLen; ++n) {
      for (std::size_t off = 0; off <= kMaxOffset; ++off) {
        Offset<float> x(n, off);
        for (std::size_t i = 0; i < n; ++i) x.p[i] = scale * rand_float();
        compare(x.p, n,
                "scale=" + std::to_string(scale) + " n=" + std::to_string(n) +
                    " off=" + std::to_string(off));
      }
    }
    for_each_planted_edge(scale, [&](const std::vector<float>& x, const std::string& what) {
      compare(x.data(), x.size(), what);
    });
  }
  // sin(-0) = -0 and cos(-0) = 1; sin keeps a subnormal's bits.
  const cf z = simd::sincos(-0.0F);
  EXPECT_TRUE(std::signbit(z.imag()) && z.imag() == 0.0F);
  EXPECT_EQ(z.real(), 1.0F);
  EXPECT_EQ(simd::sincos(0x1p-140F).imag(), 0x1p-140F);
  // Non-finite inputs give NaN on both rails, in every lane.
  for (float bad : {std::numeric_limits<float>::infinity(), -std::numeric_limits<float>::infinity(),
                    std::numeric_limits<float>::quiet_NaN()}) {
    std::vector<float> x(9, 1.0F);
    for (std::size_t pos = 0; pos < x.size(); ++pos) {
      x[pos] = bad;
      std::vector<cf> got(x.size());
      simd::sincos_f32(x.data(), got.data(), x.size());
      EXPECT_TRUE(std::isnan(got[pos].real()) && std::isnan(got[pos].imag()))
          << bad << " at " << pos;
      x[pos] = 1.0F;
    }
  }
}

TEST(DspSimd, LogF32MatchesScalarBitExact) {
  const auto compare = [](const float* x, std::size_t n, const std::string& what) {
    std::vector<float> got(n);
    std::vector<float> want(n);
    simd::log_f32(x, got.data(), n);
    simd::scalar::log_f32(x, want.data(), n);
    expect_same_bits(got.data(), want.data(), n, "log_f32 " + what);
    for (std::size_t i = 0; i < n; ++i) {
      const float one = simd::detail::log(x[i]);
      ASSERT_EQ(std::memcmp(&one, &want[i], sizeof(float)), 0) << "log " << what;
    }
  };
  for (std::size_t n = 1; n <= kMaxLen; ++n) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      Offset<float> x(n, off);
      // Positive values across many binades, as the polar method's r2.
      for (std::size_t i = 0; i < n; ++i) x.p[i] = std::exp(8.0F * rand_float());
      compare(x.p, n, "n=" + std::to_string(n) + " off=" + std::to_string(off));
    }
  }
  // Zeros, subnormals and negative edges send their group to the reference.
  for_each_planted_edge(1.0F, [&](std::vector<float> x, const std::string& what) {
    for (float& v : x) v = v == 0.0F || std::signbit(v) ? v : std::abs(v);
    compare(x.data(), x.size(), what);
  });
  EXPECT_EQ(simd::detail::log(1.0F), 0.0F);
  EXPECT_FALSE(std::signbit(simd::detail::log(1.0F)));
  EXPECT_EQ(simd::detail::log(0.0F), -std::numeric_limits<float>::infinity());
  EXPECT_EQ(simd::detail::log(-0.0F), -std::numeric_limits<float>::infinity());
  EXPECT_EQ(simd::detail::log(std::numeric_limits<float>::infinity()),
            std::numeric_limits<float>::infinity());
  for (float bad : {-1.0F, -0x1p-149F, -std::numeric_limits<float>::infinity(),
                    std::numeric_limits<float>::quiet_NaN()}) {
    std::vector<float> x(9, 2.0F);
    for (std::size_t pos = 0; pos < x.size(); ++pos) {
      x[pos] = bad;
      std::vector<float> got(x.size());
      simd::log_f32(x.data(), got.data(), x.size());
      EXPECT_TRUE(std::isnan(got[pos])) << bad << " at " << pos;
      x[pos] = 2.0F;
    }
  }
}

// simd::abs is std::abs of a std::complex<float> where that is glibc's
// cabsf: float(sqrt(double(re)^2 + double(im)^2)), +inf for an infinite
// rail, NaN for a NaN rail.
TEST(DspSimd, AbsMatchesHypotf) {
  for (int i = 0; i < 4096; ++i) {
    const float scale = std::ldexp(1.0F, static_cast<int>(rng()() % 120) - 60);
    const cf z{scale * rand_float(), scale * rand_float()};
    const float want = std::hypot(z.real(), z.imag());
    const float got = simd::abs(z);
    ASSERT_EQ(std::memcmp(&got, &want, sizeof(float)), 0) << z.real() << "," << z.imag();
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(simd::abs(cf{inf, nan}), inf);
  EXPECT_EQ(simd::abs(cf{nan, -inf}), inf);
  EXPECT_TRUE(std::isnan(simd::abs(cf{nan, 1.0F})));
  EXPECT_EQ(simd::abs(cf{0x1p100F, 0x1p100F}), std::hypot(0x1p100F, 0x1p100F));
  EXPECT_EQ(simd::abs(cf{3e38F, 3e38F}), inf);
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

void sweep_gaussian_cf(GaussianCfFn body, const std::string& name) {
  for (std::size_t n : {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 255, 256, 257, 311, 312, 313, 1000,
                        5000}) {
    simd::Mt19937_64 a(n + 1);
    simd::Mt19937_64 b(n + 1);
    std::vector<cf> got(n);
    std::vector<cf> want(n);
    body(a, got.data(), n);
    simd::scalar::gaussian_cf(b, want.data(), n);
    expect_same_bits(got.data(), want.data(), n, name + " gaussian_cf n=" + std::to_string(n));
    expect_same_engine(a, b, name + " n=" + std::to_string(n));
  }
}

TEST(DspSimd, GaussianCfMatchesScalarBitExact) {
  sweep_gaussian_cf(simd::gaussian_cf, "dispatched");
}

/// Any split of the stream into calls gives the samples of one reference
/// call, and after each call the engine sits where the reference's does
/// after the same calls: the calls end at different offsets of the
/// 312-word state, and their twists run from different first words.
void split_gaussian_cf(GaussianCfFn body, const std::string& name) {
  const std::vector<std::size_t> splits = {1, 0, 300, 3, 257, 8, 1024, 5, 311, 2};
  std::size_t total = 0;
  for (std::size_t s : splits) total += s;
  simd::Mt19937_64 whole(99);
  simd::Mt19937_64 parts(99);
  simd::Mt19937_64 steps(99);
  std::vector<cf> want(total);
  std::vector<cf> got(total);
  std::vector<cf> scratch(total);
  simd::scalar::gaussian_cf(whole, want.data(), total);
  std::size_t pos = 0;
  for (std::size_t s : splits) {
    body(parts, got.data() + pos, s);
    simd::scalar::gaussian_cf(steps, scratch.data(), s);
    expect_same_engine(parts, steps, name + " after a call of " + std::to_string(s));
    pos += s;
  }
  expect_same_bits(got.data(), want.data(), total, name + " gaussian_cf split");
  expect_same_engine(parts, whole, name + " split");
}

TEST(DspSimd, GaussianCfSplitsLikeOneCall) { split_gaussian_cf(simd::gaussian_cf, "dispatched"); }

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

void edge_words_gaussian_cf(GaussianCfFn body, const std::string& name) {
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
  body(a, got.data(), n);
  simd::scalar::gaussian_cf(b, want.data(), n);
  expect_same_bits(got.data(), want.data(), n, name + " gaussian_cf edge words");
  expect_same_engine(a, b, name + " edge words");

  // The first attempt is (0, 2^63): accepted with r2 = 1, both rails +0.
  const cf zero{0.0F, 0.0F};
  EXPECT_EQ(std::memcmp(&want[0], &zero, sizeof(cf)), 0);
}

TEST(DspSimd, GaussianCfEdgeWordsMatchScalarBitExact) {
  edge_words_gaussian_cf(simd::gaussian_cf, "dispatched");
}

// Each vector tier's body on its own: the lengths, the split calls and
// the planted edge words above.
TEST(DspSimd, GaussianCfAvx2MatchesScalarBitExact) {
  if (const std::string why = avx2_unavailable(); !why.empty()) GTEST_SKIP() << why;
  sweep_gaussian_cf(kAvx2GaussianCf, "avx2");
  split_gaussian_cf(kAvx2GaussianCf, "avx2");
  edge_words_gaussian_cf(kAvx2GaussianCf, "avx2");
}

TEST(DspSimd, GaussianCfAvx512MatchesScalarBitExact) {
  if (const std::string why = avx512_unavailable(); !why.empty()) GTEST_SKIP() << why;
  sweep_gaussian_cf(kAvx512GaussianCf, "avx512");
  split_gaussian_cf(kAvx512GaussianCf, "avx512");
  edge_words_gaussian_cf(kAvx512GaussianCf, "avx512");
}

}  // namespace
}  // namespace bhss::dsp
