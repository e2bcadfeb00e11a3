// The in-tree libm replicas (simd::sincos_f32 with its single-value
// simd::sincos, and simd::log_f32) against glibc 2.36's own bits. The
// digests below were recorded from glibc 2.36's sinf, cosf and logf on an
// x86-64 CPU with FMA, so from its FMA build of sinf/cosf: FNV-1a over
// the 32-bit output words, cos then sin per input, in input order.
//
// Tier-1 runs a stride-97 sample of every finite float (every positive
// finite float for log) against the recorded digest, the 34 inputs where
// glibc's two builds of sinf/cosf differ, and, under glibc 2.36, the same
// sample element by element against the host libm. The exhaustive
// variants sweep every finite float against one recorded digest; they
// take about 40 s on four cores and run only with BHSS_EXHAUSTIVE=1.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "dsp/simd/scalar_kernels.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/types.hpp"

namespace bhss::dsp {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr std::uint64_t fold(std::uint64_t h, std::uint64_t word) { return (h ^ word) * kFnvPrime; }

std::uint32_t bits(float f) { return std::bit_cast<std::uint32_t>(f); }

constexpr std::uint64_t kStride = 97;
constexpr std::uint64_t kFloats = 1ULL << 32;
constexpr std::uint64_t kPositiveEnd = 0x7f800000;  ///< +inf: log runs over [1, kPositiveEnd)

// Recorded from the host libm (see the file comment).
constexpr std::uint64_t kSincosStrided = 0x21d1d79e07f90dabULL;
constexpr std::uint64_t kLogStrided = 0x66fd79dd6199682fULL;
constexpr std::uint64_t kSincosExhaustive = 0xa06b18152c1d3481ULL;
constexpr std::uint64_t kLogExhaustive = 0x8c6210b1970d074fULL;

using SincosFn = void (*)(const float*, cf*, std::size_t);
using LogFn = void (*)(const float*, float*, std::size_t);

constexpr std::size_t kBlock = 4096;

/// Calls visit(x, n) on the finite floats with bits first, first + step,
/// ... below end, in order, at most kBlock of them per call.
template <class Visit>
void for_each_block(std::uint64_t first, std::uint64_t end, std::uint64_t step, Visit visit) {
  std::array<float, kBlock> x{};
  std::size_t n = 0;
  for (std::uint64_t u = first; u < end; u += step) {
    const auto f = std::bit_cast<float>(static_cast<std::uint32_t>(u));
    if (!std::isfinite(f)) continue;
    x[n++] = f;
    if (n == kBlock) {
      visit(x.data(), n);
      n = 0;
    }
  }
  if (n > 0) visit(x.data(), n);
}

std::uint64_t sincos_digest(std::uint64_t first, std::uint64_t end, std::uint64_t step,
                            SincosFn fn) {
  std::uint64_t h = kFnvOffset;
  std::array<cf, kBlock> out{};
  for_each_block(first, end, step, [&](const float* x, std::size_t n) {
    fn(x, out.data(), n);
    for (std::size_t i = 0; i < n; ++i) h = fold(fold(h, bits(out[i].real())), bits(out[i].imag()));
  });
  return h;
}

std::uint64_t log_digest(std::uint64_t first, std::uint64_t end, std::uint64_t step, LogFn fn) {
  std::uint64_t h = kFnvOffset;
  std::array<float, kBlock> out{};
  for_each_block(first, end, step, [&](const float* x, std::size_t n) {
    fn(x, out.data(), n);
    for (std::size_t i = 0; i < n; ++i) h = fold(h, bits(out[i]));
  });
  return h;
}

/// The 34 inputs (17 magnitudes, both signs) where glibc 2.36's FMA and
/// non-FMA builds of sinf/cosf disagree: the FMA build rounds the range
/// reduction x - n * pi/2 once, the other twice. Each with the FMA
/// build's cosf and sinf bits, which the replicas reproduce.
struct SplitInput {
  std::uint32_t x;
  std::uint32_t cos;
  std::uint32_t sin;
};
constexpr std::array<SplitInput, 17> kSplitInputs = {{
    {0x418a3adb, 0xb7b4f770, 0xbf800000}, {0x418a3adc, 0xb7a4f770, 0xbf800000},
    {0x418a3add, 0xb794f770, 0xbf800000}, {0x418a3ade, 0xb784f770, 0xbf800000},
    {0x41bc76d9, 0xbb803f6b, 0xbf7fff80}, {0x4202eb4b, 0x3e821ce2, 0x3f779884},
    {0x4255b0a9, 0xbf7ff82f, 0xbc7d08a9}, {0x42687a55, 0xb552257c, 0x3f800000},
    {0x4280ce28, 0x34fdd672, 0x3f800000}, {0x42870e40, 0xbc866cc4, 0xbf7ff72d},
    {0x42a35c07, 0x3f7fffe9, 0xbadaa3b4}, {0x42a35d44, 0x3f7ffffb, 0x3a44b889},
    {0x42a97360, 0xbf7ec7ba, 0x3dc7b08a}, {0x42c55faa, 0xbe8a34d1, 0xbf767f39},
    {0x42cf5854, 0xbf800000, 0x382ee64e}, {0x42d8d23e, 0xbcd25ea8, 0x3f7fea63},
    {0x42e87a55, 0xbf800000, 0xb5d2257c},
}};
constexpr std::uint32_t kSign = 0x80000000U;

bool is_split_input(float x) {
  const std::uint32_t a = bits(x) & ~kSign;
  if (a < kSplitInputs.front().x || a > kSplitInputs.back().x) return false;
  return std::any_of(kSplitInputs.begin(), kSplitInputs.end(),
                     [a](const SplitInput& s) { return s.x == a; });
}

TEST(LibmReplica, SincosMatchesRecordedDigest) {
  EXPECT_EQ(sincos_digest(0, kFloats, kStride, simd::sincos_f32), kSincosStrided) << "dispatched";
  EXPECT_EQ(sincos_digest(0, kFloats, kStride, simd::scalar::sincos_f32), kSincosStrided)
      << "reference";
}

TEST(LibmReplica, LogMatchesRecordedDigest) {
  EXPECT_EQ(log_digest(1, kPositiveEnd, kStride, simd::log_f32), kLogStrided) << "dispatched";
  EXPECT_EQ(log_digest(1, kPositiveEnd, kStride, simd::scalar::log_f32), kLogStrided)
      << "reference";
}

TEST(LibmReplica, SplitInputsKeepTheFmaBuildBits) {
  for (const SplitInput& s : kSplitInputs) {
    for (const std::uint32_t sign : {0U, kSign}) {
      const auto x = std::bit_cast<float>(s.x | sign);
      // sin is odd, cos even: the negative input flips only the sine.
      const std::uint32_t want_sin = s.sin ^ sign;
      const cf one = simd::sincos(x);
      EXPECT_EQ(bits(one.real()), s.cos) << std::hexfloat << x;
      EXPECT_EQ(bits(one.imag()), want_sin) << std::hexfloat << x;
      // Every lane of a vector group, the other lanes filled with x too.
      std::array<float, 8> xs{};
      xs.fill(x);
      std::array<cf, 8> out{};
      simd::sincos_f32(xs.data(), out.data(), xs.size());
      for (const cf& v : out) {
        EXPECT_EQ(bits(v.real()), s.cos) << std::hexfloat << x;
        EXPECT_EQ(bits(v.imag()), want_sin) << std::hexfloat << x;
      }
    }
  }
}

// Element by element against the host libm where it is glibc 2.36. The 34
// split inputs are left out here: a host without FMA (or one told to
// ignore it through GLIBC_TUNABLES) runs glibc's other build, which
// differs there, and SplitInputsKeepTheFmaBuildBits pins them.
TEST(LibmReplica, MatchesHostLibmElementwise) {
#if defined(__GLIBC__) && __GLIBC__ == 2 && __GLIBC_MINOR__ == 36
  float (*volatile host_sin)(float) = ::sinf;
  float (*volatile host_cos)(float) = ::cosf;
  float (*volatile host_log)(float) = ::logf;
  std::size_t mismatches = 0;
  std::array<cf, kBlock> rot{};
  for_each_block(0, kFloats, kStride, [&](const float* x, std::size_t n) {
    simd::sincos_f32(x, rot.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      if (is_split_input(x[i])) continue;
      if ((bits(rot[i].real()) != bits(host_cos(x[i])) ||
           bits(rot[i].imag()) != bits(host_sin(x[i]))) &&
          mismatches++ < 8) {
        ADD_FAILURE() << "sincos " << std::hexfloat << x[i];
      }
    }
  });
  std::array<float, kBlock> logs{};
  for_each_block(1, kPositiveEnd, kStride, [&](const float* x, std::size_t n) {
    simd::log_f32(x, logs.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      if (bits(logs[i]) != bits(host_log(x[i])) && mismatches++ < 8) {
        ADD_FAILURE() << "log " << std::hexfloat << x[i];
      }
    }
  });
  EXPECT_EQ(mismatches, 0U);
#else
  GTEST_SKIP() << "the host libm is not glibc 2.36";
#endif
}

// ------------------------------------------------------------ exhaustive

bool exhaustive_enabled() {
  const char* v = std::getenv("BHSS_EXHAUSTIVE");
  return v != nullptr && std::string(v) == "1";
}

/// The digest of every input with bits in [first, end): fold over the
/// digests of its 2^24-input chunks in order, which `digest(lo, hi)`
/// computes on hardware_concurrency() workers.
template <class ChunkDigest>
std::uint64_t chunked_digest(std::uint64_t first, std::uint64_t end, ChunkDigest digest) {
  constexpr std::uint64_t kChunk = 1ULL << 24;
  const std::size_t chunks = static_cast<std::size_t>((end + kChunk - 1) / kChunk);
  std::vector<std::uint64_t> per_chunk(chunks);
  std::atomic<std::size_t> next{0};
  const unsigned workers = std::max(1U, std::thread::hardware_concurrency());
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (std::size_t c; (c = next++) < chunks;) {
        per_chunk[c] = digest(std::max(first, c * kChunk), std::min(end, (c + 1) * kChunk));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::uint64_t h = kFnvOffset;
  for (std::uint64_t d : per_chunk) h = fold(h, d);
  return h;
}

TEST(LibmReplica, ExhaustiveSincosMatchesRecordedDigest) {
  if (!exhaustive_enabled()) GTEST_SKIP() << "set BHSS_EXHAUSTIVE=1 to sweep every float";
  for (const SincosFn fn : {SincosFn{simd::sincos_f32}, SincosFn{simd::scalar::sincos_f32}}) {
    const auto digest = [fn](std::uint64_t lo, std::uint64_t hi) {
      return sincos_digest(lo, hi, 1, fn);
    };
    EXPECT_EQ(chunked_digest(0, kFloats, digest), kSincosExhaustive)
        << (fn == SincosFn{simd::sincos_f32} ? "dispatched" : "reference");
  }
}

TEST(LibmReplica, ExhaustiveLogMatchesRecordedDigest) {
  if (!exhaustive_enabled()) GTEST_SKIP() << "set BHSS_EXHAUSTIVE=1 to sweep every float";
  for (const LogFn fn : {LogFn{simd::log_f32}, LogFn{simd::scalar::log_f32}}) {
    const auto digest = [fn](std::uint64_t lo, std::uint64_t hi) {
      return log_digest(lo, hi, 1, fn);
    };
    EXPECT_EQ(chunked_digest(1, kPositiveEnd, digest), kLogExhaustive)
        << (fn == LogFn{simd::log_f32} ? "dispatched" : "reference");
  }
}

}  // namespace
}  // namespace bhss::dsp
