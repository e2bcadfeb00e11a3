// bhss-analyze fixture: d2-rng-discipline MUST fire.
// An ad-hoc std engine declared as the first member after an access
// label: the label's colon must not hide the declaration.
#include <cstdint>
#include <random>

namespace fx {

class NoiseSource {
 public:
  explicit NoiseSource(std::uint64_t seed) : rng_(seed) {}
  float next() { return normal_(rng_); }

 private:
  std::mt19937_64 rng_;
  std::normal_distribution<float> normal_{0.0F, 1.0F};
};

}  // namespace fx
