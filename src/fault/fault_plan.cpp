#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>

#include "core/shared_random.hpp"

namespace bhss::fault {
namespace {

/// Stream id for the per-packet planning RNG, split off FaultConfig::seed.
/// Fixed forever: changing it silently re-rolls every recorded campaign.
constexpr std::uint64_t kPlanStream = 0xFA;

// Intensity of each fault kind.
constexpr double kBurstPowerDb = 30.0;    ///< burst power over the unit noise floor
constexpr double kBurstLenFrac = 0.08;    ///< burst span as a fraction of the capture
constexpr double kFadeDepthDb = 25.0;     ///< attenuation inside the fade
constexpr double kFadeLenFrac = 0.2;      ///< fade span as a fraction of the capture
constexpr std::size_t kDropMax = 48;      ///< max dropped samples per event
constexpr std::size_t kDupMax = 48;       ///< max duplicated samples per event
constexpr std::size_t kJumpMax = 256;     ///< max integer delay step [samples]
constexpr double kCfoStepMax = 4e-4;      ///< |extra CFO| bound [rad/sample]
constexpr std::size_t kCorruptMax = 12;   ///< max corrupted samples per event

}  // namespace

bool FaultConfig::any() const noexcept {
  return p_burst > 0.0 || p_fade > 0.0 || p_drop > 0.0 || p_dup > 0.0 ||
         p_clock_jump > 0.0 || p_cfo_step > 0.0 || p_corrupt > 0.0;
}

void FaultConfig::set_uniform_rate(double p) noexcept {
  p_burst = p;
  p_fade = p;
  p_drop = p;
  p_dup = p;
  p_clock_jump = p;
  p_cfo_step = p;
  p_corrupt = p;
}

FaultPlan plan_faults(const FaultConfig& config, std::uint64_t packet_index,
                      std::size_t capture_len) {
  FaultPlan plan;
  plan.packet_index = packet_index;
  if (!config.any() || capture_len == 0) return plan;

  core::SharedRandom rng(
      core::SharedRandom::split_seed(config.seed, kPlanStream, packet_index));
  const auto span_of = [capture_len](double frac) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(capture_len) * frac));
  };

  // One Bernoulli draw per kind, in FaultKind declaration order. Every
  // triggered kind consumes a fixed number of extra draws, so the plan is
  // a pure function of (config, packet_index, capture_len).
  if (rng.uniform() < config.p_burst) {
    plan.events.push_back({FaultKind::jammer_burst, rng.uniform_index(capture_len),
                           span_of(kBurstLenFrac), kBurstPowerDb});
  }
  if (rng.uniform() < config.p_fade) {
    const double gain = std::pow(10.0, -kFadeDepthDb / 20.0);
    plan.events.push_back({FaultKind::gain_step, rng.uniform_index(capture_len),
                           span_of(kFadeLenFrac), gain});
  }
  if (rng.uniform() < config.p_drop) {
    plan.events.push_back({FaultKind::sample_drop, rng.uniform_index(capture_len),
                           1 + rng.uniform_index(kDropMax), 0.0});
  }
  if (rng.uniform() < config.p_dup) {
    plan.events.push_back({FaultKind::sample_dup, rng.uniform_index(capture_len),
                           1 + rng.uniform_index(kDupMax), 0.0});
  }
  if (rng.uniform() < config.p_clock_jump) {
    // Clock glitches are planned at the head of the capture — the re-lock
    // transient of a front-end (and the adversary that targets
    // re-acquisition) hits while the link is still acquiring, which is
    // exactly the window the receiver's bounded re-acquisition must
    // cover. The offset cap keeps the glitch before/inside the preamble
    // even for long captures, where a capture-fraction draw would land in
    // the payload and degrade symbols instead of timing.
    const std::size_t jump_window = std::min<std::size_t>(capture_len / 4, kJumpOffsetMax);
    plan.events.push_back({FaultKind::clock_jump,
                           rng.uniform_index(std::max<std::size_t>(jump_window, 1)),
                           1 + rng.uniform_index(kJumpMax), rng.uniform()});
  }
  if (rng.uniform() < config.p_cfo_step) {
    plan.events.push_back({FaultKind::cfo_step, rng.uniform_index(capture_len), 0,
                           (2.0 * rng.uniform() - 1.0) * kCfoStepMax});
  }
  if (rng.uniform() < config.p_corrupt) {
    // magnitude selects the corruption word: 0 -> NaN, 1 -> Inf.
    plan.events.push_back({FaultKind::corrupt, rng.uniform_index(capture_len),
                           1 + rng.uniform_index(kCorruptMax), rng.uniform() < 0.5 ? 0.0 : 1.0});
  }
  return plan;
}

}  // namespace bhss::fault
