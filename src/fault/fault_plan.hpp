#pragma once

/// @file fault_plan.hpp
/// Deterministic, seed-driven fault planning for link experiments.
///
/// The paper's evaluation feeds the receiver well-formed, steady-state
/// captures; real front-ends and real adversaries do not. A reactive
/// jammer can concentrate energy on the acquisition window (the
/// convolution attack on FH links), clocks glitch, AGC steps, samples are
/// dropped or duplicated at USB/DMA boundaries, and a saturated ADC can
/// emit garbage. `FaultPlan` describes such transients for one packet
/// capture; the plan for packet `k` is a pure function of
/// (FaultConfig::seed, k) via `core::SharedRandom::split_seed`, so a
/// sharded Monte-Carlo run injects exactly the same faults as a
/// sequential one — PR 2's bit-identical determinism contract extends to
/// faulted runs unchanged.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bhss::fault {

/// One class of transient. Declaration order is the planning order: a
/// packet's events are drawn kind by kind in this sequence, which pins the
/// random-stream layout (tests hold golden plans per seed).
enum class FaultKind : std::uint8_t {
  jammer_burst,  ///< additive wide-band noise burst (power step over the floor)
  gain_step,     ///< multiplicative deep fade / AGC step over a span
  sample_drop,   ///< contiguous samples removed (DMA underrun)
  sample_dup,    ///< contiguous samples repeated (DMA overrun)
  clock_jump,    ///< receiver clock glitch: integer + fractional delay step
  cfo_step,      ///< oscillator retune: extra CFO ramp from a sample onward
  corrupt,       ///< NaN/Inf samples (saturated or faulted ADC words)
};

/// One planned transient inside a packet capture.
struct FaultEvent {
  FaultKind kind = FaultKind::jammer_burst;
  std::size_t offset = 0;   ///< sample offset into the original capture
  std::size_t length = 0;   ///< span / count / delay, kind-specific
  double magnitude = 0.0;   ///< kind-specific (dB, linear gain, rad/sample,
                            ///< fractional delay, or NaN-vs-Inf selector)
};

/// Clock glitches land in the first min(capture/4, kJumpOffsetMax)
/// samples of a capture — the acquisition region.
inline constexpr std::size_t kJumpOffsetMax = 512;

/// Per-kind fault probabilities. Each is the chance that one packet
/// capture receives one event of that kind; all default to 0 so a
/// default-constructed config is fault-free and existing experiments are
/// untouched. The intensity of each kind is a constant of the planner.
struct FaultConfig {
  std::uint64_t seed = 0xFA017ULL;  ///< fault-private randomness root

  double p_burst = 0.0;       ///< jammer power burst
  double p_fade = 0.0;        ///< deep fade / gain step
  double p_drop = 0.0;        ///< sample drop
  double p_dup = 0.0;         ///< sample duplication
  double p_clock_jump = 0.0;  ///< clock glitch (integer + fractional)
  double p_cfo_step = 0.0;    ///< oscillator step
  double p_corrupt = 0.0;     ///< NaN/Inf corruption

  /// True when any fault kind has a non-zero probability.
  [[nodiscard]] bool any() const noexcept;

  /// Campaign-sweep helper: set every per-kind probability to `p`.
  void set_uniform_rate(double p) noexcept;
};

/// The fault sequence of one packet capture, in application order.
struct FaultPlan {
  std::uint64_t packet_index = 0;
  std::vector<FaultEvent> events;
};

/// Draw the plan for packet `packet_index` of a capture of `capture_len`
/// samples. Pure function of (config, packet_index, capture_len): the
/// per-packet random stream is `split_seed(config.seed, kind-stream,
/// packet_index)`, so shard boundaries and thread counts cannot change it.
[[nodiscard]] FaultPlan plan_faults(const FaultConfig& config, std::uint64_t packet_index,
                                    std::size_t capture_len);

}  // namespace bhss::fault
