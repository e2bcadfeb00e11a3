#include "workloads.hpp"

#include <stdexcept>

#include "core/shared_random.hpp"

namespace suite {

namespace core = bhss::core;

namespace {

/// Stream id for deriving the per-workload seeds from --seed.
constexpr std::uint64_t kSeedStream = 0x5EED;

core::SimConfig seeded_base(std::uint64_t seed) {
  core::SimConfig cfg;
  cfg.channel_seed = seed;
  cfg.jammer.seed = core::SharedRandom::split_seed(seed, kSeedStream, 1);
  cfg.faults.seed = core::SharedRandom::split_seed(seed, kSeedStream, 2);
  return cfg;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed, std::size_t packets) {
  Workload w;
  w.name = name;
  core::SimConfig& cfg = w.cfg;
  cfg = seeded_base(seed);
  const core::BandwidthSet bands = core::BandwidthSet::paper();

  if (name == "clean_awgn") {
    // Delivering link: no jammer, default linear pattern, 4 symbols/hop.
    cfg.jammer.kind = core::JammerSpec::Kind::none;
    cfg.snr_db = 15.0;
    cfg.payload_len = 8;
    cfg.n_packets = 128;
  } else if (name == "fig14_narrowjam") {
    // Fig. 14 point: one band per packet against the narrowest noise jammer.
    cfg.system.pattern = core::HopPattern::make(core::HopPatternType::linear, bands);
    cfg.system.symbols_per_hop = 1024;
    cfg.payload_len = 6;
    cfg.jammer.kind = core::JammerSpec::Kind::fixed_bandwidth;
    cfg.jammer.bandwidth_frac = bands.bandwidth_frac(bands.narrowest_index());
    cfg.jnr_db = 30.0;
    cfg.snr_db = 15.0;
    cfg.n_packets = 96;
  } else if (name == "reactive_hop4") {
    // §3 scenario: a reactive jammer chasing 4-symbol hops.
    cfg.system.pattern = core::HopPattern::make(core::HopPatternType::linear, bands);
    cfg.system.symbols_per_hop = 4;
    cfg.payload_len = 6;
    cfg.jammer.kind = core::JammerSpec::Kind::reactive;
    cfg.jammer.reaction_delay = 8192;
    cfg.jnr_db = 30.0;
    cfg.snr_db = 25.0;
    cfg.n_packets = 64;
  } else if (name == "adapt_faults") {
    // adapt_scenarios' closed loop against the duty-cycle jammer, with 5 %
    // of every fault kind, journaled like a checkpointed campaign.
    cfg.jammer.kind = core::JammerSpec::Kind::duty_cycle;
    cfg.jammer.bandwidth_frac = 0.35;
    cfg.jammer.duty_period = 8192;
    cfg.jammer.duty_fraction = 0.5;
    cfg.faults.set_uniform_rate(0.05);
    cfg.snr_db = 16.0;
    cfg.jnr_db = 20.0;
    cfg.n_packets = 96;
    bhss::adapt::AdaptConfig& loop = cfg.adapt;
    loop.enabled = true;
    loop.detector.window_packets = 4;
    loop.detector.bad_fraction = 0.45;
    loop.detector.min_bad = 2;
    loop.detector.trip_windows = 1;
    loop.detector.clear_windows = 2;
    loop.fallback_windows = 2;
    loop.recovery_windows = 1;
    w.journaled = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (packets != 0) cfg.n_packets = packets;
  return w;
}

}  // namespace suite
