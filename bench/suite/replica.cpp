#include "replica.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <numbers>
#include <stdexcept>

#include "alloc_count.hpp"
#include "channel/link_channel.hpp"
#include "obs/link_obs.hpp"
#include "runtime/parallel_link_runner.hpp"

namespace suite {

namespace core = bhss::core;
namespace obs = bhss::obs;
using Kind = core::JammerSpec::Kind;

JammerBox::JammerBox(const core::JammerSpec& spec, const core::BandwidthSet& bands) {
  switch (spec.kind) {
    case Kind::none:
      break;
    case Kind::fixed_bandwidth:
      jammer_.emplace<bhss::jammer::NoiseJammer>(spec.bandwidth_frac, spec.seed);
      break;
    case Kind::reactive:
      jammer_.emplace<bhss::jammer::ReactiveJammer>(bands.bandwidth_fracs(), spec.reaction_delay,
                                                    spec.seed, spec.estimation_samples);
      break;
    case Kind::duty_cycle:
      jammer_.emplace<bhss::jammer::DutyCycleJammer>(spec.bandwidth_frac, spec.duty_period,
                                                     spec.duty_fraction, spec.seed);
      break;
    default:
      throw std::invalid_argument("replica: jammer kind not used by any workload");
  }
}

bhss::dsp::cvec JammerBox::waveform(const core::Transmission& tx,
                                    const core::BandwidthSet& bands, std::size_t delay,
                                    std::size_t total_len) {
  if (auto* j = std::get_if<bhss::jammer::NoiseJammer>(&jammer_)) return j->generate(total_len);
  if (auto* j = std::get_if<bhss::jammer::ReactiveJammer>(&jammer_)) {
    const auto hops = tx.schedule.observed_hops(bands, delay);
    return j->generate(hops, total_len);
  }
  if (auto* j = std::get_if<bhss::jammer::DutyCycleJammer>(&jammer_)) {
    return j->generate(total_len);
  }
  return {};
}

namespace {

core::JammerSpec seeded_spec(const core::SimConfig& cfg, const core::ShardSeeds& seeds) {
  core::JammerSpec spec = cfg.jammer;
  spec.seed = seeds.jammer;
  return spec;
}

}  // namespace

ShardSetup::ShardSetup(const core::SimConfig& cfg, const core::ShardSeeds& seeds)
    : tx(cfg.system),
      rx(cfg.system),
      noise(seeds.channel),
      channel_rng(seeds.impairments),
      jammer(seeded_spec(cfg, seeds), cfg.system.pattern.bands()),
      injector(cfg.faults) {
  if (cfg.adapt.enabled && cfg.system.hopping) {
    ctrl.emplace(cfg.adapt, cfg.system.pattern.probabilities(), cfg.system.symbols_per_hop);
  }
}

namespace {

using Clock = std::chrono::steady_clock;

/// Span recorder: open/close around each public call.
class Recorder {
 public:
  explicit Recorder(std::vector<Span>& spans) : spans_(spans), t0_(Clock::now()) {}

  std::int64_t open(const char* name, std::int64_t parent, std::uint32_t shard,
                    std::int64_t packet) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.shard = shard;
    s.packet = packet;
    const AllocCount a = thread_allocs();
    s.allocs = a.calls;
    s.alloc_bytes = a.bytes;
    spans_.push_back(s);
    // Read the clock last so the span excludes its own bookkeeping.
    spans_.back().start_ns = now_ns();
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  void close(std::int64_t idx) {
    const std::uint64_t end = now_ns();
    const AllocCount a = thread_allocs();
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.end_ns = end;
    s.allocs = a.calls - s.allocs;
    s.alloc_bytes = a.bytes - s.alloc_bytes;
  }

  /// Child spans of `parent` carrying summed scope durations, laid end to
  /// end from the parent's start (their true interleaving is not known).
  void add_aggregate(const char* name, std::int64_t parent, std::uint64_t ns) {
    const Span& p = spans_[static_cast<std::size_t>(parent)];
    std::uint64_t start = p.start_ns;
    if (!spans_.empty() && spans_.back().aggregate && spans_.back().parent == parent) {
      start = spans_.back().end_ns;
    }
    Span s;
    s.name = name;
    s.parent = parent;
    s.shard = p.shard;
    s.packet = p.packet;
    s.start_ns = start;
    s.end_ns = start + ns;
    s.aggregate = true;
    spans_.push_back(s);
  }

  [[nodiscard]] std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_).count());
  }

 private:
  std::vector<Span>& spans_;
  Clock::time_point t0_;
};

/// receive()'s timing scopes and the span names they become.
constexpr std::array<std::pair<obs::TraceScopeId, const char*>, 5> kReceiveScopes = {{
    {obs::TraceScopeId::choose_filter, "control_logic.choose_filter"},
    {obs::TraceScopeId::filter_apply, "dsp.filter_apply"},
    {obs::TraceScopeId::preamble_acquire, "sync.preamble_acquire"},
    {obs::TraceScopeId::carrier_track, "sync.carrier_track"},
    {obs::TraceScopeId::demod_despread, "phy.demod_despread"},
}};

std::array<std::uint64_t, kReceiveScopes.size()> scope_totals(const obs::TraceSink& sink) {
  std::array<std::uint64_t, kReceiveScopes.size()> out{};
  for (std::size_t i = 0; i < kReceiveScopes.size(); ++i) {
    out[i] = sink.scope(kReceiveScopes[i].first).total_ns;
  }
  return out;
}

/// run_link_shard's packet loop, call for call, with a span per call.
core::LinkStats replay_shard(const core::SimConfig& cfg, std::size_t shard,
                             std::size_t n_shards, Recorder& rec, ReplayCounts& counts) {
  const auto range = bhss::runtime::ParallelLinkRunner::shard_range(cfg.n_packets, n_shards,
                                                                    shard);
  if (range.count == 0) return {};
  const core::ShardSeeds seeds = bhss::runtime::ParallelLinkRunner::shard_seeds(cfg, shard);
  const auto shard_id = static_cast<std::uint32_t>(shard);

  // Telemetry for receive() only; built outside the shard span because it
  // is the tracer's, not the program's.
  obs::ShardTelemetry telemetry;
  const obs::LinkObs rx_obs = telemetry.obs();

  const std::int64_t shard_span = rec.open("core.shard", -1, shard_id, -1);
  const std::int64_t setup_span = rec.open("core.shard_setup", shard_span, shard_id, -1);
  ShardSetup st(cfg, seeds);
  rec.close(setup_span);

  const core::BandwidthSet& bands = cfg.system.pattern.bands();
  const double sample_rate = bands.sample_rate_hz();
  const bool genie = cfg.system.sync == core::SyncMode::genie;
  std::optional<core::HopPattern> adapted_pattern;
  std::uint32_t adapted_epoch = 0;

  core::LinkStats stats;
  for (std::size_t pkt = range.first; pkt < range.first + range.count; ++pkt) {
    const auto pid = static_cast<std::int64_t>(pkt);
    const std::int64_t packet_span = rec.open("core.packet", shard_span, shard_id, pid);

    std::vector<std::uint8_t> payload(cfg.payload_len);
    for (std::size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<std::uint8_t>((pkt * 31 + j * 7 + 13) & 0xFF);
    }
    core::HopOverride ov;
    if (st.ctrl.has_value() && st.ctrl->plan().epoch != 0) {
      if (!adapted_pattern.has_value() || adapted_epoch != st.ctrl->plan().epoch) {
        adapted_pattern = core::HopPattern::custom(bands, st.ctrl->plan().probs);
        adapted_epoch = st.ctrl->plan().epoch;
      }
      ov.pattern = &*adapted_pattern;
      ov.symbols_per_hop = st.ctrl->plan().symbols_per_hop;
    }

    std::int64_t span = rec.open("core.transmit", packet_span, shard_id, pid);
    const core::Transmission t = st.tx.transmit(payload, pkt, ov);
    rec.close(span);

    bhss::channel::LinkConfig link;
    link.snr_db = cfg.snr_db;
    if (cfg.jammer.kind != Kind::none) link.jnr_db = cfg.jnr_db;
    link.tx_delay =
        cfg.impairments
            ? 16 + st.channel_rng.uniform_index(std::max<std::size_t>(cfg.max_delay, 1))
            : cfg.max_delay / 2;
    link.tail_pad = 64;
    if (cfg.impairments && !genie) {
      link.phase =
          static_cast<float>((st.channel_rng.uniform() * 2.0 - 1.0) * std::numbers::pi);
      link.cfo = static_cast<float>((st.channel_rng.uniform() * 2.0 - 1.0) *
                                    static_cast<double>(cfg.max_cfo));
    }
    const std::size_t total_len = link.tx_delay + t.samples.size() + link.tail_pad;

    span = rec.open("jammer.generate", packet_span, shard_id, pid);
    const bhss::dsp::cvec jam = st.jammer.waveform(t, bands, link.tx_delay, total_len);
    rec.close(span);

    span = rec.open("channel.transmit", packet_span, shard_id, pid);
    bhss::dsp::cvec rx_signal = bhss::channel::transmit(t.samples, jam, link, st.noise);
    rec.close(span);
    counts.channel_samples += rx_signal.size();
    counts.channel_bytes_computed += 8 * (t.samples.size() + jam.size() + rx_signal.size());

    span = rec.open("fault.apply", packet_span, shard_id, pid);
    if (st.injector.enabled()) {
      const bhss::fault::FaultPlan plan = st.injector.plan_for_packet(pkt, rx_signal.size());
      const bhss::fault::FaultLog applied = st.injector.apply(plan, rx_signal);
      stats.faults_injected += applied.total();
      counts.fault_events += applied.total();
    }
    rec.close(span);

    const std::size_t search_window = link.tx_delay + cfg.max_delay / 4 + 64;
    const auto scopes_before = scope_totals(telemetry.trace);
    span = rec.open("core.receive", packet_span, shard_id, pid);
    const core::RxResult res = st.rx.receive(rx_signal, pkt, cfg.payload_len, search_window,
                                             link.tx_delay, rx_obs, ov);
    rec.close(span);
    const auto scopes_after = scope_totals(telemetry.trace);
    for (std::size_t i = 0; i < kReceiveScopes.size(); ++i) {
      rec.add_aggregate(kReceiveScopes[i].second, span, scopes_after[i] - scopes_before[i]);
    }

    ++stats.packets;
    stats.airtime_s += static_cast<double>(t.samples.size()) / sample_rate;
    if (res.frame_detected) ++stats.detected;
    if (res.sync_lost) ++stats.sync_lost;
    if (res.reacquired) ++stats.reacquired;
    if (res.input_scrubbed) ++stats.corrupt_input_rejected;
    stats.filter_fallback += res.filter_fallbacks;
    const bool delivered = res.crc_ok && res.payload == payload;
    if (delivered) ++stats.ok;
    const std::size_t n = std::min(res.symbols.size(), t.symbols.size());
    stats.total_symbols += t.symbols.size();
    for (std::size_t s = 0; s < n; ++s) {
      if (res.symbols[s] != t.symbols[s]) ++stats.symbol_errors;
    }
    stats.symbol_errors += t.symbols.size() - n;

    counts.hops += res.hops.size();
    for (const core::HopDiagnostics& h : res.hops) {
      switch (h.filter) {
        case core::FilterDecision::Kind::none: ++counts.filter_none; break;
        case core::FilterDecision::Kind::lowpass: ++counts.filter_lowpass; break;
        case core::FilterDecision::Kind::excision: ++counts.filter_excision; break;
      }
    }
    counts.sync_attempts += res.sync_attempts;
    if (!genie && res.frame_detected) ++counts.sync_locks;

    span = rec.open("adapt.controller", packet_span, shard_id, pid);
    if (st.ctrl.has_value()) {
      const bool lost = !delivered || res.sync_lost;
      for (const core::HopDiagnostics& h : res.hops) {
        st.ctrl->note_hop(h.bw_index, lost && (h.filter != core::FilterDecision::Kind::none ||
                                               h.degenerate_psd));
      }
      st.ctrl->on_packet({delivered, res.sync_lost, pkt});
    }
    rec.close(span);
    rec.close(packet_span);
  }

  if (st.ctrl.has_value()) {
    const bhss::adapt::AdaptCounters& c = st.ctrl->counters();
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
  rec.close(shard_span);

  const obs::LinkIds& ids = obs::link_ids();
  counts.cache_hits += telemetry.metrics.counter(ids.filter_cache_hits);
  counts.cache_misses += telemetry.metrics.counter(ids.filter_cache_misses);
  return stats;
}

}  // namespace

Replay replay_point(const core::SimConfig& cfg, std::size_t n_shards) {
  Replay out;
  // 12 spans per packet, 2 per shard; reserving keeps vector growth out of
  // the spans.
  out.spans.reserve(16 * cfg.n_packets + 4 * n_shards + 16);
  const Clock::time_point t0 = Clock::now();
  Recorder rec(out.spans);
  std::vector<core::LinkStats> parts(n_shards);
  for (std::size_t shard = 0; shard < n_shards; ++shard) {
    parts[shard] = replay_shard(cfg, shard, n_shards, rec, out.counts);
  }
  out.stats = bhss::runtime::merge_point_results(parts, nullptr, cfg.payload_len);
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

bool write_spans_jsonl(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%lld,\"shard\":%u,\"packet\":%lld,\"allocs\":%llu,"
                 "\"alloc_bytes\":%llu,\"aggregate\":%s}\n",
                 i, s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), static_cast<long long>(s.parent),
                 s.shard, static_cast<long long>(s.packet),
                 static_cast<unsigned long long>(s.allocs),
                 static_cast<unsigned long long>(s.alloc_bytes),
                 s.aggregate ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

}  // namespace suite
