#pragma once

/// @file resilience_controller.hpp
/// The closed-loop link-layer resilience controller: consumes per-packet
/// outcomes and per-hop filter-decision evidence (src/obs telemetry
/// terms), runs the sliding-window jam detector, and drives the explicit
/// degradation state machine
///
///   NOMINAL -> DEGRADED -> FALLBACK -> RECOVERING -> NOMINAL
///
/// over the hop plan (distribution + dwell) the PHY draws its schedule
/// from:
///  * NOMINAL     — the configured pattern, untouched. plan epoch 0.
///  * DEGRADED    — detector tripped (debounced): re-weight away from
///    suspected bandwidth indices (occupancy floor guaranteed) and
///    shorten the dwell so the hop rate outruns the adversary.
///  * FALLBACK    — jamming persisted for `fallback_windows` more
///    windows: bounded worst-case posture — the widest-spreading
///    (uniform) pattern at the minimum dwell. The fallback plan is a
///    fixed point; no further adaptation happens until the detector
///    clears, so a poisoned detector cannot walk the link anywhere.
///  * RECOVERING  — detector cleared (debounced): blend the distribution
///    geometrically back toward the base and restore the dwell; snaps
///    exactly onto the base plan and returns to NOMINAL, so a recovered
///    link is bit-identical to one that was never jammed.
///
/// One controller per simulation shard, fed strictly in packet order:
/// the controller is a pure fold over its shard's packet stream, which
/// is what makes adaptive runs bit-identical at any thread count and
/// across kill-and-resume (the same contract every other subsystem
/// obeys; see DESIGN.md §12).

#include <cstdint>
#include <vector>

#include "adapt/hop_adapter.hpp"
#include "adapt/jam_detector.hpp"
#include "obs/link_obs.hpp"

namespace bhss::adapt {

/// Degradation state of the adaptive link layer.
enum class LinkAdaptState : std::uint8_t { nominal = 0, degraded, fallback, recovering };

/// Name of a state ("nominal" / "degraded" / "fallback" / "recovering").
[[nodiscard]] const char* to_string(LinkAdaptState s) noexcept;

/// Controller knobs, embedded in core::SimConfig as `cfg.adapt`.
struct AdaptConfig {
  bool enabled = false;          ///< off = static link, controller never built
  JamDetectorConfig detector{};
  std::size_t fallback_windows = 3;  ///< jammed windows in DEGRADED before FALLBACK
  std::size_t recovery_windows = 2;  ///< clean windows in FALLBACK before RECOVERING
};

/// The hop plan the PHY should draw schedules from. `epoch` increments
/// whenever probs/dwell change, so callers can rebuild their HopPattern
/// only when needed; epoch 0 always means "exactly the base plan".
struct HopPlan {
  std::vector<double> probs;
  std::size_t symbols_per_hop = 0;
  std::uint32_t epoch = 0;
};

/// Adaptation counters folded into the merged LinkStats taxonomy.
struct AdaptCounters {
  std::size_t transitions = 0;      ///< state-machine edges taken
  std::size_t jam_episodes = 0;     ///< entries into DEGRADED
  std::size_t fallbacks = 0;        ///< entries into FALLBACK
  std::size_t recoveries = 0;       ///< completed RECOVERING -> NOMINAL returns
  std::size_t windows_jammed = 0;   ///< detector windows that tripped
  std::size_t packets_adapted = 0;  ///< packets sent under a non-base plan
};

/// Per-shard closed-loop controller.
class ResilienceController {
 public:
  ResilienceController(const AdaptConfig& config, std::vector<double> base_probs,
                       std::size_t base_symbols_per_hop);

  /// What the controller needs to know about one finished packet.
  struct PacketOutcome {
    bool delivered = false;
    bool sync_lost = false;
    std::uint64_t packet = 0;  ///< global packet index (trace stamping only)
  };

  /// Per-hop hot path: forward one hop's filter-decision outcome to the
  /// detector's suspicion counters.
  BHSS_HOT void note_hop(std::size_t bw_index, bool filtered) noexcept;

  /// Register a finished packet; runs the window evaluation and state
  /// machine when the packet closes a detection window. `o` is optional
  /// telemetry — adaptation is bit-identical with or without it.
  void on_packet(const PacketOutcome& outcome, const obs::LinkObs& o = {});

  [[nodiscard]] const HopPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] LinkAdaptState state() const noexcept { return state_; }
  [[nodiscard]] const AdaptCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const JamDetector& detector() const noexcept { return detector_; }

 private:
  void enter(LinkAdaptState next, std::size_t window_ordinal, std::uint64_t packet,
             const obs::LinkObs& o);
  void publish_plan(const std::vector<double>& probs, std::size_t symbols_per_hop);

  AdaptConfig config_;
  JamDetector detector_;
  HopAdapter adapter_;
  LinkAdaptState state_ = LinkAdaptState::nominal;
  HopPlan plan_;
  std::size_t base_symbols_per_hop_;
  std::size_t degraded_symbols_per_hop_;
  std::size_t degraded_jammed_windows_ = 0;  ///< jammed windows since DEGRADED entry
  std::size_t fallback_clean_windows_ = 0;   ///< clean-window streak in FALLBACK
  std::uint32_t epoch_source_ = 0;           ///< monotonic; never reused (epoch 0 = base)
  AdaptCounters counters_;
};

}  // namespace bhss::adapt
