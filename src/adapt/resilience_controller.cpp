#include "adapt/resilience_controller.hpp"

#include <algorithm>

namespace bhss::adapt {

const char* to_string(LinkAdaptState s) noexcept {
  switch (s) {
    case LinkAdaptState::nominal: return "nominal";
    case LinkAdaptState::degraded: return "degraded";
    case LinkAdaptState::fallback: return "fallback";
    case LinkAdaptState::recovering: return "recovering";
  }
  return "unknown";
}

ResilienceController::ResilienceController(const AdaptConfig& config,
                                           std::vector<double> base_probs,
                                           std::size_t base_symbols_per_hop)
    : config_(config),
      detector_(config.detector, base_probs.size()),
      adapter_(config.adapter, std::move(base_probs)),
      base_symbols_per_hop_(base_symbols_per_hop) {
  BHSS_REQUIRE(base_symbols_per_hop_ >= 1, "ResilienceController: dwell must be >= 1 symbol");
  BHSS_REQUIRE(config_.min_symbols_per_hop >= 1 &&
                   config_.min_symbols_per_hop <= base_symbols_per_hop_,
               "ResilienceController: dwell floor must lie in [1, base dwell]");
  BHSS_REQUIRE(config_.fallback_windows >= 1,
               "ResilienceController: fallback debounce must be >= 1 window");
  BHSS_REQUIRE(config_.recovery_windows >= 1,
               "ResilienceController: recovery debounce must be >= 1 window");
  degraded_symbols_per_hop_ =
      std::max(base_symbols_per_hop_ >> config_.degraded_dwell_shift, config_.min_symbols_per_hop);
  plan_.probs = adapter_.base();
  plan_.symbols_per_hop = base_symbols_per_hop_;
  plan_.epoch = 0;
}

void ResilienceController::note_hop(std::size_t bw_index, bool filtered) noexcept {
  detector_.note_hop(bw_index, filtered);
}

void ResilienceController::publish_plan(const std::vector<double>& probs,
                                        std::size_t symbols_per_hop) {
  plan_.probs = probs;
  plan_.symbols_per_hop = symbols_per_hop;
  plan_.epoch = ++epoch_source_;
}

void ResilienceController::enter(LinkAdaptState next, std::size_t window_ordinal,
                                 std::uint64_t packet, const obs::LinkObs& o) {
  const LinkAdaptState from = state_;
  state_ = next;
  ++counters_.transitions;
  if (o) {
    o.record({.type = obs::TraceEventType::adapt_transition,
              .flag = static_cast<std::uint8_t>(next),
              .hop = static_cast<std::uint32_t>(window_ordinal), .packet = packet,
              .v0 = static_cast<double>(from), .v1 = static_cast<double>(plan_.symbols_per_hop),
              .v2 = static_cast<double>(plan_.epoch)});
  }
}

void ResilienceController::on_packet(const PacketOutcome& outcome, const obs::LinkObs& o) {
  if (plan_.epoch != 0) ++counters_.packets_adapted;

  const WindowVerdict v = detector_.note_packet(outcome.delivered, outcome.sync_lost);
  if (!v.closed) return;

  if (v.jammed) ++counters_.windows_jammed;
  if (o) {
    o.record({.type = obs::TraceEventType::adapt_window, .flag = v.jammed,
              .hop = static_cast<std::uint32_t>(v.ordinal), .packet = outcome.packet,
              .v0 = v.bad_fraction, .v1 = detector_.config().bad_fraction,
              .v2 = static_cast<double>(v.bad), .v3 = static_cast<double>(v.streak)});
  }

  switch (state_) {
    case LinkAdaptState::nominal:
      if (detector_.state() == JamState::jammed) {
        ++counters_.jam_episodes;
        degraded_jammed_windows_ = 0;
        adapter_.reweight(detector_.suspicion());
        publish_plan(adapter_.probs(), degraded_symbols_per_hop_);
        enter(LinkAdaptState::degraded, v.ordinal, outcome.packet, o);
      }
      break;

    case LinkAdaptState::degraded:
      if (v.jammed) {
        ++degraded_jammed_windows_;
        if (degraded_jammed_windows_ >= config_.fallback_windows) {
          // Persistent jamming: bounded worst-case posture. The uniform
          // plan is a fixed point until the detector clears.
          ++counters_.fallbacks;
          fallback_clean_windows_ = 0;
          adapter_.fall_back_uniform();
          publish_plan(adapter_.probs(), config_.min_symbols_per_hop);
          enter(LinkAdaptState::fallback, v.ordinal, outcome.packet, o);
        } else {
          // Track the adversary: suspicion has moved, so re-weight again.
          adapter_.reweight(detector_.suspicion());
          publish_plan(adapter_.probs(), degraded_symbols_per_hop_);
        }
      } else if (detector_.state() == JamState::clear) {
        publish_plan(adapter_.probs(), base_symbols_per_hop_);
        enter(LinkAdaptState::recovering, v.ordinal, outcome.packet, o);
      }
      break;

    case LinkAdaptState::fallback:
      if (v.jammed) {
        fallback_clean_windows_ = 0;
      } else {
        ++fallback_clean_windows_;
        if (detector_.state() == JamState::clear &&
            fallback_clean_windows_ >= config_.recovery_windows) {
          publish_plan(adapter_.probs(), base_symbols_per_hop_);
          enter(LinkAdaptState::recovering, v.ordinal, outcome.packet, o);
        }
      }
      break;

    case LinkAdaptState::recovering:
      if (detector_.state() == JamState::jammed) {
        ++counters_.jam_episodes;
        degraded_jammed_windows_ = 0;
        adapter_.reweight(detector_.suspicion());
        publish_plan(adapter_.probs(), degraded_symbols_per_hop_);
        enter(LinkAdaptState::degraded, v.ordinal, outcome.packet, o);
      } else if (!v.jammed) {
        if (adapter_.recover_toward_base()) {
          ++counters_.recoveries;
          // Snapped exactly onto the base plan: epoch 0 means the shard
          // can drop its override and a recovered link is bit-identical
          // to one that was never jammed.
          plan_.probs = adapter_.base();
          plan_.symbols_per_hop = base_symbols_per_hop_;
          plan_.epoch = 0;
          enter(LinkAdaptState::nominal, v.ordinal, outcome.packet, o);
        } else {
          publish_plan(adapter_.probs(), base_symbols_per_hop_);
        }
      }
      break;
  }

  detector_.decay_suspicion();
}

}  // namespace bhss::adapt
