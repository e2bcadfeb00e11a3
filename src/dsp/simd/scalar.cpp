// The MT19937-64 engine's members: seeding and the one-word step, scalar
// in every build (the kernels' reference bodies are in scalar_kernels.hpp).

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
