#include "adapt/jam_detector.hpp"

namespace bhss::adapt {

JamDetector::JamDetector(const JamDetectorConfig& config, std::size_t n_bands)
    : config_(config), suspicion_(n_bands, 0) {
  BHSS_REQUIRE(config_.window_packets >= 1, "JamDetector: window must hold >= 1 packet");
  BHSS_REQUIRE(config_.bad_fraction >= 0.0 && config_.bad_fraction <= 1.0,
               "JamDetector: bad_fraction must lie in [0, 1]");
  BHSS_REQUIRE(config_.trip_windows >= 1, "JamDetector: trip debounce must be >= 1 window");
  BHSS_REQUIRE(config_.clear_windows >= 1, "JamDetector: clear debounce must be >= 1 window");
  BHSS_REQUIRE(n_bands >= 1, "JamDetector: need at least one bandwidth index");
}

WindowVerdict JamDetector::note_packet(bool delivered, bool sync_lost) noexcept {
  ++in_window_;
  if (!delivered || sync_lost) ++bad_in_window_;
  if (in_window_ < config_.window_packets) return {};

  WindowVerdict v;
  v.closed = true;
  v.bad = bad_in_window_;
  v.bad_fraction =
      static_cast<double>(bad_in_window_) / static_cast<double>(config_.window_packets);
  v.jammed = v.bad_fraction > config_.bad_fraction && bad_in_window_ >= config_.min_bad;
  in_window_ = 0;
  bad_in_window_ = 0;

  ++windows_closed_;
  v.ordinal = windows_closed_;
  if (v.jammed) {
    ++windows_jammed_;
    ++consecutive_bad_;
    consecutive_good_ = 0;
    if (consecutive_bad_ >= config_.trip_windows) {
      state_ = JamState::jammed;
    } else if (state_ == JamState::clear) {
      state_ = JamState::suspect;
    }
  } else {
    ++consecutive_good_;
    consecutive_bad_ = 0;
    if (state_ == JamState::suspect) {
      state_ = JamState::clear;  // one clean window retires an unconfirmed trip
    } else if (state_ == JamState::jammed && consecutive_good_ >= config_.clear_windows) {
      state_ = JamState::clear;
    }
  }
  v.streak = consecutive_bad_;
  return v;
}

void JamDetector::note_hop(std::size_t bw_index, bool filtered) noexcept {
  if (!filtered || bw_index >= suspicion_.size()) return;
  ++suspicion_[bw_index];
}

void JamDetector::decay_suspicion() noexcept {
  for (std::uint32_t& s : suspicion_) s >>= 1U;
}

}  // namespace bhss::adapt
