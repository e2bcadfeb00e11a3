// Unit tests for the channel simulator: noise statistics, impairments and
// end-to-end power calibration of transmit().

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <random>

#include "channel/awgn.hpp"
#include "channel/impairments.hpp"
#include "channel/link_channel.hpp"
#include "dsp/utils.hpp"

namespace bhss::channel {
namespace {

TEST(Awgn, PowerCalibration) {
  AwgnSource noise(1);
  for (double power : {0.01, 1.0, 25.0}) {
    const dsp::cvec x = noise.generate(1 << 16, power);
    EXPECT_NEAR(dsp::mean_power(x), power, power * 0.05) << "power " << power;
  }
}

TEST(Awgn, CircularSymmetry) {
  AwgnSource noise(2);
  const dsp::cvec x = noise.generate(1 << 16, 2.0);
  double i_power = 0.0;
  double q_power = 0.0;
  double cross = 0.0;
  for (const dsp::cf& s : x) {
    i_power += static_cast<double>(s.real()) * s.real();
    q_power += static_cast<double>(s.imag()) * s.imag();
    cross += static_cast<double>(s.real()) * s.imag();
  }
  const auto n = static_cast<double>(x.size());
  EXPECT_NEAR(i_power / n, 1.0, 0.05);
  EXPECT_NEAR(q_power / n, 1.0, 0.05);
  EXPECT_NEAR(cross / n, 0.0, 0.05);
}

TEST(Awgn, Deterministic) {
  AwgnSource a(42);
  AwgnSource b(42);
  const dsp::cvec xa = a.generate(64, 1.0);
  const dsp::cvec xb = b.generate(64, 1.0);
  EXPECT_EQ(xa, xb);
}

TEST(Awgn, AddToSuperimposes) {
  AwgnSource noise(3);
  dsp::cvec x(1 << 14, dsp::cf{1.0F, 0.0F});
  noise.add_to(dsp::cspan_mut{x}, 0.5);
  EXPECT_NEAR(dsp::mean_power(x), 1.5, 0.05);
}

/// Bitwise equality of two sample runs (catches -0 vs +0).
bool same_bits(const dsp::cf* a, const dsp::cf* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(dsp::cf)) == 0;
}

TEST(Awgn, StreamIsPinned) {
  // The first samples at unit variance per rail (power 2, so the scale is
  // exactly 1), as IEEE-754 bit patterns: real then imaginary. These are
  // the values libstdc++'s normal_distribution<float> drew from
  // std::mt19937_64 before the stream moved in-tree.
  struct Golden {
    std::uint64_t seed;
    std::array<std::uint32_t, 8> bits;
  };
  const std::array<Golden, 2> goldens = {{
      {1, {0xBEC60ED3, 0xBD2161DA, 0x3F2FD3AB, 0xBE7EEC2D, 0xBF4B8EB3, 0xBD5FD566, 0x3FF80E9E,
           0x3F801F39}},
      {0x5EED, {0xBEB5C6E1, 0x3F434C0C, 0x3E566B55, 0xBFC46BE2, 0x3FD2716F, 0x3CC6F045,
                0x3E81FB08, 0xC0192D86}},
  }};
  for (const Golden& g : goldens) {
    AwgnSource noise(g.seed);
    const dsp::cvec x = noise.generate(4, 2.0);
    std::array<std::uint32_t, 8> got{};
    std::memcpy(got.data(), x.data(), sizeof(got));
    EXPECT_EQ(got, g.bits) << "seed " << g.seed;
  }
}

#if defined(__GLIBCXX__)
/// The stream the channel drew before it owned its engine: libstdc++'s
/// normal_distribution<float>{0, 1} over std::mt19937_64, two normals per
/// sample, scaled per rail.
class LibraryNoise {
 public:
  explicit LibraryNoise(std::uint64_t seed) : rng_(seed) {}

  dsp::cf next(double power) {
    const auto sigma = static_cast<float>(std::sqrt(power / 2.0));
    const float re = sigma * normal_(rng_);
    const float im = sigma * normal_(rng_);
    return dsp::cf{re, im};
  }

 private:
  std::mt19937_64 rng_;
  std::normal_distribution<float> normal_{0.0F, 1.0F};
};

TEST(Awgn, MatchesLibstdcxxNormalDistribution) {
  for (double power : {1.0, 0.37}) {
    for (std::size_t n : {0, 1, 3, 255, 256, 257, 311, 312, 313, 40000}) {
      AwgnSource noise(n + 5);
      LibraryNoise ref(n + 5);
      // Two calls per source: the second starts wherever the first left
      // the engine.
      for (int call = 0; call < 2; ++call) {
        const dsp::cvec got = noise.generate(n, power);
        dsp::cvec want(n);
        for (dsp::cf& w : want) w = ref.next(power);
        EXPECT_TRUE(same_bits(got.data(), want.data(), n))
            << "n=" << n << " power=" << power << " call=" << call;
      }
    }
  }
}

TEST(Awgn, InterleavedGenerateAndAddToMatchLibstdcxx) {
  AwgnSource noise(77);
  LibraryNoise ref(77);
  std::mt19937 pick(3);
  for (std::size_t len : {1, 300, 0, 257, 3, 5000, 312, 2, 1024, 313}) {
    if (pick() % 2 == 0) {
      const dsp::cvec got = noise.generate(len, 0.8);
      dsp::cvec want(len);
      for (dsp::cf& w : want) w = ref.next(0.8);
      EXPECT_TRUE(same_bits(got.data(), want.data(), len)) << "generate len=" << len;
    } else {
      dsp::cvec got(len);
      for (std::size_t i = 0; i < len; ++i) {
        got[i] = dsp::cf{0.25F * static_cast<float>(i % 7), -1.5F};
      }
      dsp::cvec want = got;
      noise.add_to(dsp::cspan_mut{got}, 3.0);
      for (dsp::cf& w : want) w += ref.next(3.0);
      EXPECT_TRUE(same_bits(got.data(), want.data(), len)) << "add_to len=" << len;
    }
  }
}
#endif

TEST(Impairments, PhaseRotation) {
  dsp::cvec x = {dsp::cf{1.0F, 0.0F}};
  apply_phase(dsp::cspan_mut{x}, std::numbers::pi_v<float> / 2.0F);
  EXPECT_NEAR(x[0].real(), 0.0F, 1e-6F);
  EXPECT_NEAR(x[0].imag(), 1.0F, 1e-6F);
}

TEST(Impairments, CfoAccumulatesLinearly) {
  const float cfo = 1e-3F;
  dsp::cvec x(10000, dsp::cf{1.0F, 0.0F});
  apply_cfo(dsp::cspan_mut{x}, cfo);
  for (std::size_t n : {0UL, 100UL, 5000UL, 9999UL}) {
    EXPECT_NEAR(std::arg(x[n]),
                std::remainder(cfo * static_cast<float>(n), 2.0F * std::numbers::pi_v<float>),
                2e-3F)
        << "n=" << n;
    EXPECT_NEAR(std::abs(x[n]), 1.0F, 1e-3F) << "n=" << n;  // renormalisation works
  }
}

TEST(Impairments, IntegerDelay) {
  const dsp::cvec x = {dsp::cf{1.0F, 1.0F}, dsp::cf{2.0F, 0.0F}};
  const dsp::cvec y = apply_delay(x, 3, 8);
  ASSERT_EQ(y.size(), 8U);
  EXPECT_EQ(y[0], (dsp::cf{0.0F, 0.0F}));
  EXPECT_EQ(y[3], x[0]);
  EXPECT_EQ(y[4], x[1]);
  EXPECT_EQ(y[7], (dsp::cf{0.0F, 0.0F}));
}

TEST(Impairments, DelayClipsAtTotalLen) {
  const dsp::cvec x(10, dsp::cf{1.0F, 0.0F});
  const dsp::cvec y = apply_delay(x, 5, 8);
  ASSERT_EQ(y.size(), 8U);
  EXPECT_EQ(y[7], (dsp::cf{1.0F, 0.0F}));
}

TEST(Impairments, FractionalDelayInterpolates) {
  const dsp::cvec x = {dsp::cf{1.0F, 0.0F}, dsp::cf{0.0F, 0.0F}};
  const dsp::cvec y = apply_fractional_delay(x, 0.25);
  ASSERT_EQ(y.size(), 3U);
  EXPECT_NEAR(y[0].real(), 0.75F, 1e-6F);
  EXPECT_NEAR(y[1].real(), 0.25F, 1e-6F);
  EXPECT_THROW((void)apply_fractional_delay(x, 1.0), std::invalid_argument);
}

TEST(Impairments, FractionalDelayEdgeCases) {
  // frac == 0 is the identity up to the interpolator's one-sample tail:
  // the fault injector's clock jump calls this with an arbitrary draw in
  // [0, 1), so the degenerate endpoint must be exact, not approximate.
  const dsp::cvec x = {dsp::cf{1.0F, 2.0F}, dsp::cf{-3.0F, 0.5F}, dsp::cf{0.0F, -1.0F}};
  const dsp::cvec y = apply_fractional_delay(x, 0.0);
  ASSERT_EQ(y.size(), x.size() + 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(y[i], x[i]) << "i=" << i;
  }
  EXPECT_EQ(y.back(), (dsp::cf{0.0F, 0.0F}));

  // An empty capture stays well-defined (one zero sample of tail), so
  // callers need no special case before the interpolator.
  const dsp::cvec none = apply_fractional_delay(dsp::cvec{}, 0.7);
  ASSERT_EQ(none.size(), 1U);
  EXPECT_EQ(none[0], (dsp::cf{0.0F, 0.0F}));

  // Negative fractions are rejected like frac >= 1.
  EXPECT_THROW((void)apply_fractional_delay(x, -0.1), std::invalid_argument);
}

TEST(LinkChannel, SnrCalibration) {
  // A constant-envelope "signal" through the channel: measured SNR at the
  // output must match the configuration.
  dsp::cvec tx(1 << 15);
  for (std::size_t i = 0; i < tx.size(); ++i) {
    const float ang = 0.3F * static_cast<float>(i);
    tx[i] = dsp::cf{std::cos(ang), std::sin(ang)};
  }
  AwgnSource noise(5);
  LinkConfig cfg;
  cfg.snr_db = 13.0;
  const dsp::cvec rx = channel::transmit(tx, {}, cfg, noise);
  ASSERT_EQ(rx.size(), tx.size());
  // Total power = signal + unit noise.
  EXPECT_NEAR(dsp::mean_power(rx), dsp::db_to_linear(13.0) + 1.0,
              0.05 * (dsp::db_to_linear(13.0) + 1.0));
}

TEST(LinkChannel, JammerPowerCalibration) {
  dsp::cvec tx(1 << 14, dsp::cf{1.0F, 0.0F});
  AwgnSource noise(6);
  AwgnSource jam_src(7);
  const dsp::cvec jam = jam_src.generate(1 << 14, 3.0);  // arbitrary input power
  LinkConfig cfg;
  cfg.snr_db = -300.0;  // signal off
  cfg.jnr_db = 17.0;
  const dsp::cvec rx = channel::transmit(tx, jam, cfg, noise);
  EXPECT_NEAR(dsp::mean_power(rx), dsp::db_to_linear(17.0) + 1.0,
              0.05 * dsp::db_to_linear(17.0));
}

TEST(LinkChannel, DelayAndTailPad) {
  dsp::cvec tx(100, dsp::cf{1.0F, 0.0F});
  AwgnSource noise(8);
  LinkConfig cfg;
  cfg.snr_db = 40.0;
  cfg.tx_delay = 20;
  cfg.tail_pad = 30;
  const dsp::cvec rx = channel::transmit(tx, {}, cfg, noise);
  ASSERT_EQ(rx.size(), 150U);
  // Signal region is much louder than the leading noise-only region.
  EXPECT_GT(dsp::mean_power(dsp::cspan{rx}.subspan(20, 100)),
            100.0 * dsp::mean_power(dsp::cspan{rx}.first(20)));
}

TEST(LinkChannel, NoJammerSpanIgnored) {
  dsp::cvec tx(64, dsp::cf{1.0F, 0.0F});
  AwgnSource noise(9);
  LinkConfig cfg;
  cfg.snr_db = 10.0;  // jnr_db unset
  AwgnSource jam_src(10);
  const dsp::cvec jam = jam_src.generate(64, 1.0);
  const dsp::cvec with_spec = channel::transmit(tx, jam, cfg, noise);
  // jam provided but jnr_db not set: jammer must not be mixed in.
  AwgnSource noise2(9);
  const dsp::cvec without = channel::transmit(tx, {}, cfg, noise2);
  EXPECT_EQ(with_spec, without);
}

}  // namespace
}  // namespace bhss::channel
