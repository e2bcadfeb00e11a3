#pragma once

/// @file fault_injector.hpp
/// Applies a `FaultPlan` to one packet capture. The injector sits between
/// the channel (`channel::transmit`) and the receiver in
/// `core::run_link_shard`: the channel still produces a well-formed
/// capture, the injector then degrades it the way a real front-end or a
/// transient-seeking adversary would. Application is deterministic — the
/// burst noise stream is split off (FaultConfig::seed, packet_index) just
/// like the plan itself — so faulted runs keep the bit-identical
/// determinism contract of the parallel Monte-Carlo engine.

#include "dsp/types.hpp"
#include "fault/fault_plan.hpp"
#include "obs/link_obs.hpp"

namespace bhss::fault {

/// What `FaultInjector::apply` actually did to one capture.
struct FaultLog {
  std::size_t bursts = 0;
  std::size_t fades = 0;
  std::size_t drops = 0;
  std::size_t dups = 0;
  std::size_t clock_jumps = 0;
  std::size_t cfo_steps = 0;
  std::size_t corruptions = 0;

  [[nodiscard]] std::size_t total() const noexcept {
    return bursts + fades + drops + dups + clock_jumps + cfo_steps + corruptions;
  }
};

/// Stateless fault applicator; one instance serves a whole shard.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config) : config_(config) {}

  [[nodiscard]] const FaultConfig& config() const noexcept { return config_; }

  /// True when the configured fault matrix can ever produce an event.
  [[nodiscard]] bool enabled() const noexcept { return config_.any(); }

  /// Draw the plan for one packet capture (see `plan_faults`).
  [[nodiscard]] FaultPlan plan_for_packet(std::uint64_t packet_index,
                                          std::size_t capture_len) const {
    return plan_faults(config_, packet_index, capture_len);
  }

  /// Apply `plan` to `capture` in event order. Length-changing events
  /// (drops, duplications, clock jumps) resize the buffer; offsets are
  /// clamped to the buffer's current size, so any plan is safe to apply
  /// to any capture. `obs` (optional) records one fault_applied trace
  /// event per event and the fault_inject timing scope; the capture
  /// mutation is identical with or without it.
  FaultLog apply(const FaultPlan& plan, dsp::cvec& capture,
                 const obs::LinkObs& o = {}) const;

 private:
  FaultConfig config_;
};

}  // namespace bhss::fault
