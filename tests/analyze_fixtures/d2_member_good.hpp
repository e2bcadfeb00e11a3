// bhss-analyze fixture: d2-rng-discipline must NOT fire.
// Members right after access labels that are not RNG engines, including
// a real bit-field, so the label skip does not swallow other syntax.
#include <cstdint>

namespace fx {

class Counter {
 public:
  std::uint64_t total = 0;

 protected:
  std::uint32_t flags : 3;

 private:
  std::uint64_t state_ = 1;
};

}  // namespace fx
