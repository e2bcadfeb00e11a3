#include "core/link_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <type_traits>
#include <variant>

#include "channel/link_channel.hpp"
#include "fault/fault_injector.hpp"
#include "jammer/band_sweep_jammer.hpp"
#include "jammer/duty_cycle_jammer.hpp"
#include "jammer/estimating_jammer.hpp"
#include "jammer/hopping_jammer.hpp"
#include "jammer/noise_jammer.hpp"
#include "jammer/reactive_jammer.hpp"
#include "jammer/tone_jammer.hpp"

namespace bhss::core {
namespace {

/// Whichever jammer the spec asks for (monostate: none). Kept alive
/// across packets so the jammer's own randomness does not repeat.
using AnyJammer =
    std::variant<std::monostate, jammer::NoiseJammer, jammer::HoppingJammer,
                 jammer::ReactiveJammer, jammer::ToneJammer, jammer::SweptJammer,
                 jammer::DutyCycleJammer, jammer::BandSweepJammer, jammer::EstimatingJammer>;

AnyJammer make_jammer(const JammerSpec& spec, std::uint64_t seed, const BandwidthSet& bands) {
  using Kind = JammerSpec::Kind;
  switch (spec.kind) {
    case Kind::none:
      return std::monostate{};
    case Kind::fixed_bandwidth:
      return AnyJammer(std::in_place_type<jammer::NoiseJammer>, spec.bandwidth_frac, seed);
    case Kind::hopping: {
      std::vector<double> probs = spec.hop_probs;
      if (probs.empty()) probs.assign(bands.size(), 1.0);
      return AnyJammer(std::in_place_type<jammer::HoppingJammer>, bands.bandwidth_fracs(), probs,
                       spec.dwell_samples, seed);
    }
    case Kind::reactive:
      return AnyJammer(std::in_place_type<jammer::ReactiveJammer>, bands.bandwidth_fracs(),
                       spec.reaction_delay, seed, spec.estimation_samples);
    case Kind::tone:
      return AnyJammer(std::in_place_type<jammer::ToneJammer>, spec.tone_freqs, seed);
    case Kind::swept:
      return AnyJammer(std::in_place_type<jammer::SweptJammer>, spec.sweep_lo, spec.sweep_hi,
                       spec.sweep_samples, seed);
    case Kind::duty_cycle:
      return AnyJammer(std::in_place_type<jammer::DutyCycleJammer>, spec.bandwidth_frac,
                       spec.duty_period, spec.duty_fraction, seed);
    case Kind::band_sweep:
      return AnyJammer(std::in_place_type<jammer::BandSweepJammer>, spec.sweep_lo, spec.sweep_hi,
                       spec.sweep_steps, spec.dwell_samples, spec.sweep_bw_frac, seed);
    case Kind::estimating:
      return AnyJammer(std::in_place_type<jammer::EstimatingJammer>, bands.bandwidth_fracs(),
                       spec.estimation_hops, seed);
  }
  return std::monostate{};
}

/// One packet's jammer waveform. Jammers that sense the link (reactive,
/// estimating) are handed the hops they observe on air: the transmit
/// schedule shifted by the arrival delay.
dsp::cvec jammer_waveform(AnyJammer& jam, const Transmission& tx, const BandwidthSet& bands,
                          std::size_t delay, std::size_t total_len) {
  return std::visit(
      [&](auto& j) -> dsp::cvec {
        if constexpr (std::is_same_v<std::decay_t<decltype(j)>, std::monostate>) {
          return {};
        } else if constexpr (requires { j.generate(total_len); }) {
          return j.generate(total_len);
        } else {
          return j.generate(tx.schedule.observed_hops(bands, delay), total_len);
        }
      },
      jam);
}

}  // namespace

LinkStats run_link_shard(const SimConfig& cfg, std::size_t first_packet,
                         std::size_t n_packets, const ShardSeeds& seeds,
                         const obs::LinkObs& o) {
  const BhssTransmitter tx(cfg.system);
  const BhssReceiver rx(cfg.system);
  channel::AwgnSource noise(seeds.channel);
  SharedRandom channel_rng(seeds.impairments);
  AnyJammer jammer = make_jammer(cfg.jammer, seeds.jammer, cfg.system.pattern.bands());
  const fault::FaultInjector injector(cfg.faults);

  const double sample_rate = cfg.system.pattern.bands().sample_rate_hz();
  const bool genie = cfg.system.sync == SyncMode::genie;

  // Closed-loop resilience: one controller per shard, fed strictly in
  // packet order. The adapted HopPattern is rebuilt only when the plan
  // epoch moves; epoch 0 means "exactly the base plan", so a nominal or
  // fully recovered link takes the no-override path and is bit-identical
  // to a run with adaptation disabled.
  std::optional<adapt::ResilienceController> ctrl;
  std::optional<HopPattern> adapted_pattern;
  std::uint32_t adapted_epoch = 0;
  if (cfg.adapt.enabled && cfg.system.hopping) {
    ctrl.emplace(cfg.adapt, cfg.system.pattern.probabilities(), cfg.system.symbols_per_hop);
  }

  LinkStats stats;
  for (std::size_t pkt = first_packet; pkt < first_packet + n_packets; ++pkt) {
    // Deterministic, packet-dependent payload.
    std::vector<std::uint8_t> payload(cfg.payload_len);
    for (std::size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<std::uint8_t>((pkt * 31 + j * 7 + 13) & 0xFF);
    }

    HopOverride ov;
    if (ctrl.has_value() && ctrl->plan().epoch != 0) {
      if (!adapted_pattern.has_value() || adapted_epoch != ctrl->plan().epoch) {
        adapted_pattern = HopPattern::custom(cfg.system.pattern.bands(), ctrl->plan().probs);
        adapted_epoch = ctrl->plan().epoch;
      }
      ov.pattern = &*adapted_pattern;
      ov.symbols_per_hop = ctrl->plan().symbols_per_hop;
    }

    const Transmission t = tx.transmit(payload, pkt, ov);

    // Channel realisation.
    channel::LinkConfig link;
    link.snr_db = cfg.snr_db;
    if (cfg.jammer.kind != JammerSpec::Kind::none) link.jnr_db = cfg.jnr_db;
    link.tx_delay = cfg.impairments
                        ? 16 + channel_rng.uniform_index(std::max<std::size_t>(cfg.max_delay, 1))
                        : cfg.max_delay / 2;
    link.tail_pad = 64;
    if (cfg.impairments && !genie) {
      link.phase = static_cast<float>((channel_rng.uniform() * 2.0 - 1.0) * std::numbers::pi);
      link.cfo = static_cast<float>((channel_rng.uniform() * 2.0 - 1.0) *
                                    static_cast<double>(cfg.max_cfo));
    }

    const std::size_t total_len = link.tx_delay + t.samples.size() + link.tail_pad;
    // The jammer waveform is a temporary: only the channel reads it, so it
    // is freed before the receiver runs.
    dsp::cvec rx_signal = channel::transmit(
        t.samples,
        jammer_waveform(jammer, t, cfg.system.pattern.bands(), link.tx_delay, total_len), link,
        noise);

    // Transient faults between channel and receiver. The plan for packet
    // `pkt` depends only on (faults.seed, pkt), never on the shard, so a
    // sharded run degrades exactly like a sequential one.
    if (injector.enabled()) {
      const fault::FaultPlan plan = injector.plan_for_packet(pkt, rx_signal.size());
      const fault::FaultLog applied = injector.apply(plan, rx_signal, o);
      stats.faults_injected += applied.total();
    }

    const std::size_t search_window = link.tx_delay + cfg.max_delay / 4 + 64;
    const RxResult res =
        rx.receive(rx_signal, pkt, cfg.payload_len, search_window, link.tx_delay, o, ov);

    ++stats.packets;
    stats.airtime_s += static_cast<double>(t.samples.size()) / sample_rate;
    if (res.frame_detected) ++stats.detected;
    if (res.sync_lost) ++stats.sync_lost;
    if (res.reacquired) ++stats.reacquired;
    if (res.input_scrubbed) ++stats.corrupt_input_rejected;
    stats.filter_fallback += res.filter_fallbacks;
    const bool delivered = res.crc_ok && res.payload == payload;
    if (delivered) ++stats.ok;

    if (o) {
      o.record({.type = obs::TraceEventType::packet_done, .flag = delivered,
                .hop = static_cast<std::uint32_t>(res.hops.size()), .packet = pkt,
                .v0 = static_cast<double>(res.sync_attempts),
                .v1 = static_cast<double>(res.filter_fallbacks),
                .v2 = res.frame_detected ? 1.0 : 0.0});
    }

    const std::size_t n = std::min(res.symbols.size(), t.symbols.size());
    stats.total_symbols += t.symbols.size();
    for (std::size_t s = 0; s < n; ++s) {
      if (res.symbols[s] != t.symbols[s]) ++stats.symbol_errors;
    }
    stats.symbol_errors += t.symbols.size() - n;  // undecoded symbols count as errors

    if (ctrl.has_value()) {
      // Per-hop eq. (10) outcomes are the detector's spectral evidence,
      // but only for packets the link actually lost: a filter decision on
      // a *delivered* packet means the excision won, and punishing that
      // bandwidth would steer the distribution away from exactly the hops
      // the receiver can save. A hop implicates its bandwidth index when
      // the control logic saw jamming (filtered or degenerate PSD) AND
      // the packet still failed.
      const bool lost = !delivered || res.sync_lost;
      for (const HopDiagnostics& h : res.hops) {
        ctrl->note_hop(h.bw_index,
                       lost && (h.filter != FilterDecision::Kind::none || h.degenerate_psd));
      }
      ctrl->on_packet({delivered, res.sync_lost, pkt}, o);
    }
  }

  if (ctrl.has_value()) {
    const adapt::AdaptCounters& c = ctrl->counters();
    stats.adapt_transitions = c.transitions;
    stats.adapt_jam_episodes = c.jam_episodes;
    stats.adapt_fallbacks = c.fallbacks;
    stats.adapt_recoveries = c.recoveries;
    stats.adapt_windows_jammed = c.windows_jammed;
    stats.adapt_packets_adapted = c.packets_adapted;
  }

  if (stats.airtime_s > 0.0) {
    stats.throughput_bps =
        static_cast<double>(stats.ok * cfg.payload_len * 8) / stats.airtime_s;
  }
  if (o) obs::add_link_stats(o.telemetry->metrics, stats);
  return stats;
}

LinkStats run_link(const SimConfig& cfg) {
  // The default seed tuple reproduces the historical sequential stream:
  // noise straight from channel_seed, impairments from its fixed xor.
  const ShardSeeds seeds{cfg.channel_seed, cfg.channel_seed ^ 0xC4A77EULL, cfg.jammer.seed};
  return run_link_shard(cfg, 0, cfg.n_packets, seeds);
}

LinkStats merge_link_stats(const std::vector<LinkStats>& shards, std::size_t payload_len) {
  LinkStats total;
  for (const LinkStats& s : shards) {
    for (const LinkStatsField& f : kLinkStatsFields) {
      if (!f.derived) f.add(total, s);
    }
  }
  if (total.airtime_s > 0.0) {
    total.throughput_bps =
        static_cast<double>(total.ok * payload_len * 8) / total.airtime_s;
  }
  return total;
}

double min_snr_for_per(const SimConfig& cfg, const PerEvaluator& per_of, double target_per,
                       double lo_db, double hi_db, double tol_db) {
  auto per_at = [&cfg, &per_of](double snr_db) {
    SimConfig c = cfg;
    c.snr_db = snr_db;
    return per_of(c);
  };

  if (per_at(hi_db) > target_per) return hi_db;  // unreachable even at max power
  if (per_at(lo_db) <= target_per) return lo_db;

  double lo = lo_db;
  double hi = hi_db;
  while (hi - lo > tol_db) {
    const double mid = 0.5 * (lo + hi);
    if (per_at(mid) <= target_per) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

double min_snr_for_per(const SimConfig& cfg, double target_per, double lo_db, double hi_db,
                       double tol_db) {
  return min_snr_for_per(
      cfg, [](const SimConfig& c) { return run_link(c).per(); }, target_per, lo_db, hi_db,
      tol_db);
}

double power_advantage_db(const SimConfig& a, const SimConfig& b, double target_per) {
  return min_snr_for_per(b, target_per) - min_snr_for_per(a, target_per);
}

}  // namespace bhss::core
