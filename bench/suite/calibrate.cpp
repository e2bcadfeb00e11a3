#include "calibrate.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <utility>

namespace suite {

namespace {

/// One lane's work covers two buffers of 1 MiB each, past a core's L2, so
/// the kernel also feels shared-cache and memory contention.
constexpr std::size_t kSamples = std::size_t{1} << 17;
constexpr std::size_t kTaps = 16;
constexpr std::size_t kFftSize = 1024;
constexpr std::size_t kChunk = 4 * kFftSize;

float next_uniform(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return static_cast<float>(state >> 40) * (1.0F / 16777216.0F) - 0.5F;
}

/// In-place radix-2 decimation-in-time FFT of `n` samples at `a`.
void fft(std::complex<float>* a, std::size_t n) {
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; (j & bit) != 0; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const float angle = -6.28318530717958647692F / static_cast<float>(len);
    const std::complex<float> step(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<float> w(1.0F, 0.0F);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<float> u = a[i + k];
        const std::complex<float> v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= step;
      }
    }
  }
}

}  // namespace

/// FIR filter, block FFTs, then a reduction: the simulator's kind of work.
/// Output sample i filters the periodic input around i mod kSamples.
double Calibrator::run_chunk(std::size_t chunk) {
  const std::size_t begin = chunk * kChunk;
  for (std::size_t i = begin; i < begin + kChunk; ++i) {
    std::complex<float> acc{};
    for (std::size_t k = 0; k < kTaps; ++k) acc += taps_[k] * x_[(i - k) % kSamples];
    y_[i] = acc;
  }
  for (std::size_t b = begin; b < begin + kChunk; b += kFftSize) fft(&y_[b], kFftSize);
  double sum = 0.0;
  for (std::size_t i = begin; i < begin + kChunk; ++i) sum += static_cast<double>(std::abs(y_[i]));
  return sum;
}

double Calibrator::seconds(std::size_t lanes) {
  if (lanes == 0) lanes = 1;
  if (x_.empty()) {
    std::uint64_t state = 0x5EEDCA1BULL;
    x_.resize(kSamples);
    taps_.resize(kTaps);
    for (auto& v : x_) v = {next_uniform(state), next_uniform(state)};
    for (auto& v : taps_) v = {next_uniform(state), next_uniform(state)};
  }
  if (y_.size() < lanes * kSamples) y_.resize(lanes * kSamples);
  const std::size_t chunks = lanes * kSamples / kChunk;
  std::vector<double> sums(chunks, 0.0);
  std::atomic<std::size_t> next{0};
  const auto lane = [&] {
    for (std::size_t c = next.fetch_add(1); c < chunks; c = next.fetch_add(1)) {
      sums[c] = run_chunk(c);
    }
  };
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(lanes - 1);
    for (std::size_t i = 1; i < lanes; ++i) helpers.emplace_back(lane);
    lane();
  }
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  double total = 0.0;
  for (const double s : sums) total += s;
  const auto [it, first] = checksums_.try_emplace(lanes, total);
  if (!first && it->second != total) {
    throw std::runtime_error("calibration kernel gave a different result on the same input");
  }
  return wall;
}

}  // namespace suite
