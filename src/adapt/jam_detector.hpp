#pragma once

/// @file jam_detector.hpp
/// Deterministic sliding-window jam detector with hysteresis (the
/// ExpressLRS anti_jamming.h lineage, SNIPPET 3): packets register
/// good/bad into a fixed-length window, a closed window whose bad
/// fraction crosses the threshold — with a minimum bad count so short
/// windows cannot trip on a single loss — counts as a jammed window, and
/// debounce on both edges (`trip_windows` consecutive jammed windows
/// raise the jam flag, `clear_windows` consecutive clean ones lower it)
/// keeps the adaptation loop above from flapping on channel noise.
///
/// Per-bandwidth suspicion rides along: every hop the receiver's control
/// logic had to filter (eq. (10) chose lowpass/excision, or the
/// degenerate-PSD fallback fired) is evidence that the jammer currently
/// occupies that bandwidth index. The controller reads the suspicion
/// array at window boundaries and decays it so stale evidence fades.
///
/// All state is fixed-size integer storage allocated at construction:
/// the per-packet and per-hop paths are BHSS_HOT and must stay
/// allocation/lock/IO-free over the whole call graph (enforced by
/// scripts/bhss_analyze.py, check h1-hot-path-purity).

#include <cstdint>
#include <vector>

#include "core/contracts.hpp"

namespace bhss::adapt {

/// Detector knobs. Thresholds mirror the ExpressLRS shape: a fraction
/// gate plus an absolute floor, then consecutive-window debounce.
struct JamDetectorConfig {
  std::size_t window_packets = 8;  ///< packets per detection window (>= 1)
  double bad_fraction = 0.5;       ///< window trips when bad/total > this
  std::size_t min_bad = 2;         ///< ... and at least this many bad packets
  std::size_t trip_windows = 2;    ///< consecutive jammed windows to raise
  std::size_t clear_windows = 2;   ///< consecutive clean windows to lower
};

/// Debounced detector output. `suspect` bridges the first jammed window
/// and the debounced trip so callers can observe the latency explicitly.
enum class JamState : std::uint8_t { clear = 0, suspect, jammed };

/// What closed when a packet completed a window. `closed == false` means
/// the packet landed mid-window and every other field is unspecified.
struct WindowVerdict {
  bool closed = false;
  bool jammed = false;        ///< this window crossed the trip thresholds
  std::size_t bad = 0;        ///< bad packets in the closed window
  double bad_fraction = 0.0;  ///< bad / window_packets
  std::size_t ordinal = 0;    ///< windows closed so far (1-based)
  std::size_t streak = 0;     ///< consecutive jammed windows including this
};

/// Windowed good/bad packet detector + per-bandwidth suspicion counters.
/// One instance per simulation shard, fed strictly in packet order —
/// the detector is a pure fold over its inputs, so a sharded run
/// reproduces bit-identically at any thread count.
class JamDetector {
 public:
  JamDetector(const JamDetectorConfig& config, std::size_t n_bands);

  /// Per-packet hot path: register one packet outcome. Returns the
  /// window verdict when this packet closed a window.
  BHSS_HOT WindowVerdict note_packet(bool delivered, bool sync_lost) noexcept;

  /// Per-hop hot path: register one hop's filter-decision outcome as
  /// (non-)evidence against its bandwidth index. The caller decides
  /// what counts as evidence — the link feeds `filtered && packet
  /// lost`, since a filter decision on a delivered packet means the
  /// excision won and that bandwidth should not be punished.
  BHSS_HOT void note_hop(std::size_t bw_index, bool filtered) noexcept;

  /// Debounced detector state.
  [[nodiscard]] JamState state() const noexcept { return state_; }

  /// Filtered-hop evidence per bandwidth index since the last decay.
  [[nodiscard]] const std::vector<std::uint32_t>& suspicion() const noexcept {
    return suspicion_;
  }

  /// Exponential forgetting (integer halving) of the suspicion counters;
  /// the controller calls this at every window boundary so the detector
  /// tracks a moving jammer instead of its history.
  void decay_suspicion() noexcept;

  [[nodiscard]] std::size_t windows_closed() const noexcept { return windows_closed_; }
  [[nodiscard]] std::size_t windows_jammed() const noexcept { return windows_jammed_; }
  [[nodiscard]] const JamDetectorConfig& config() const noexcept { return config_; }

 private:
  JamDetectorConfig config_;
  JamState state_ = JamState::clear;
  std::size_t in_window_ = 0;        ///< packets registered in the open window
  std::size_t bad_in_window_ = 0;
  std::size_t consecutive_bad_ = 0;  ///< jammed-window streak
  std::size_t consecutive_good_ = 0; ///< clean-window streak
  std::size_t windows_closed_ = 0;
  std::size_t windows_jammed_ = 0;
  std::vector<std::uint32_t> suspicion_;  ///< filtered hops per bandwidth index
};

}  // namespace bhss::adapt
