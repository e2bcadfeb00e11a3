#include "dsp/simd/scalar_kernels.hpp"
#include "dsp/simd/simd.hpp"

namespace bhss::dsp::simd {

Mt19937_64::Mt19937_64(std::uint64_t seed) noexcept : words{}, next(kWords) {
  words[0] = seed;
  for (std::size_t i = 1; i < kWords; ++i) {
    words[i] = 6364136223846793005ULL * (words[i - 1] ^ (words[i - 1] >> 62)) + i;
  }
}

std::uint64_t Mt19937_64::operator()() noexcept { return detail::mt_next(*this); }

}  // namespace bhss::dsp::simd

namespace bhss::dsp::simd::scalar {

void fir_filter_block(const cf* taps, std::size_t n_taps, const cf* x, cf* out,
                      std::size_t n_out) {
  detail::fir_filter_block_scalar(taps, n_taps, x, out, n_out);
}

void fir_decimate_real(const float* taps, std::size_t n_taps, const cf* x, cf* out,
                       std::size_t n_out, std::size_t stride) {
  detail::fir_decimate_real_scalar(taps, n_taps, x, out, n_out, stride);
}

void correlate_lags(const cf* x, const cf* ref, std::size_t n_ref, cf* out, std::size_t n_lags) {
  detail::correlate_lags_scalar(x, ref, n_ref, out, n_lags);
}

void despread_correlate16(const cf* pairs, std::size_t n_pairs, const float* se, const float* so,
                          const float* cols, cf* out) {
  detail::despread_correlate16_scalar(pairs, n_pairs, se, so, cols, out);
}

void fft_stages(cf* x, std::size_t n, const cf* tw, bool inverse) {
  detail::fft_stages_scalar(x, n, tw, inverse);
}

void cmul_inplace(cf* a, const cf* b, std::size_t n) { detail::cmul_inplace_scalar(a, b, n); }

void scale_inplace(cf* x, float s, std::size_t n) { detail::scale_inplace_scalar(x, s, n); }

void window_apply(const cf* x, const float* w, cf* out, std::size_t n) {
  detail::window_apply_scalar(x, w, out, n);
}

void scale_pulse(float a, float b, const float* pulse, cf* out, std::size_t n) {
  detail::scale_pulse_scalar(a, b, pulse, out, n);
}

void gaussian_cf(Mt19937_64& eng, cf* out, std::size_t n) {
  detail::gaussian_cf_scalar(eng, out, n);
}

}  // namespace bhss::dsp::simd::scalar
