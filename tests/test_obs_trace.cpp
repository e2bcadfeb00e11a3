// Trace-layer tests: bounded-ring semantics (overwrite-oldest, explicit
// drop accounting), scope timing accumulation, deterministic JSON
// rendering, the golden-trace regressions pinning the receiver's
// per-hop filter-decision sequence for fixed-seed links against a
// reactive and a tone jammer, and a telemetry golden that recounts every
// metric from the events that record it. A golden mismatch means the
// control-logic decision path changed behaviour — update the golden only
// after confirming the change is intended.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "core/link_simulator.hpp"
#include "obs/link_obs.hpp"
#include "obs/trace.hpp"

namespace {

using namespace bhss;

obs::TraceEvent make_event(std::uint32_t hop) {
  obs::TraceEvent ev;
  ev.type = obs::TraceEventType::hop_decision;
  ev.hop = hop;
  ev.packet = 7;
  ev.v0 = static_cast<double>(hop) * 0.5;
  return ev;
}

TEST(ObsTrace, RingRetainsEverythingBelowCapacity) {
  obs::TraceSink sink(8);
  EXPECT_EQ(sink.capacity(), 8u);
  for (std::uint32_t i = 0; i < 5; ++i) sink.push(make_event(i));
  EXPECT_EQ(sink.size(), 5u);
  EXPECT_EQ(sink.total_recorded(), 5u);
  EXPECT_EQ(sink.dropped(), 0u);
  const std::vector<obs::TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(events[i].hop, i);
}

TEST(ObsTrace, RingOverwritesOldestAndCountsDrops) {
  obs::TraceSink sink(4);
  for (std::uint32_t i = 0; i < 10; ++i) sink.push(make_event(i));
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.total_recorded(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  const std::vector<obs::TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first: events 6, 7, 8, 9 survive.
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].hop, 6 + i);
}

TEST(ObsTrace, RingRejectsZeroCapacity) {
  EXPECT_THROW(obs::TraceSink sink(0), contract_violation);
}

TEST(ObsTrace, ScopeStatsAccumulate) {
  obs::TraceSink sink(4);
  sink.note_scope(obs::TraceScopeId::receive, 100);
  sink.note_scope(obs::TraceScopeId::receive, 250);
  sink.note_scope(obs::TraceScopeId::choose_filter, 40);
  const obs::TraceScopeStats& rx = sink.scope(obs::TraceScopeId::receive);
  EXPECT_EQ(rx.calls, 2u);
  EXPECT_EQ(rx.total_ns, 350u);
  EXPECT_EQ(rx.max_ns, 250u);
  EXPECT_EQ(sink.scope(obs::TraceScopeId::choose_filter).calls, 1u);
  EXPECT_EQ(sink.scope(obs::TraceScopeId::fault_inject).calls, 0u);

  obs::TraceSink other(4);
  other.note_scope(obs::TraceScopeId::receive, 400);
  sink.merge_scopes_from(other);
  EXPECT_EQ(sink.scope(obs::TraceScopeId::receive).calls, 3u);
  EXPECT_EQ(sink.scope(obs::TraceScopeId::receive).total_ns, 750u);
  EXPECT_EQ(sink.scope(obs::TraceScopeId::receive).max_ns, 400u);
}

TEST(ObsTrace, TraceScopeRecordsOnDestruction) {
  obs::TraceSink sink(4);
  {
    BHSS_TRACE_SCOPE(&sink, obs::TraceScopeId::demod_despread);
  }
  EXPECT_EQ(sink.scope(obs::TraceScopeId::demod_despread).calls, 1u);
  // A null sink must be safe and free of clock reads.
  {
    BHSS_TRACE_SCOPE(static_cast<obs::TraceSink*>(nullptr),
                     obs::TraceScopeId::demod_despread);
  }
  EXPECT_EQ(sink.scope(obs::TraceScopeId::demod_despread).calls, 1u);
}

TEST(ObsTrace, EventNamesAreStable) {
  using obs::TraceEventType;
  EXPECT_STREQ(obs::trace_event_name(TraceEventType::hop_decision), "hop_decision");
  EXPECT_STREQ(obs::trace_event_name(TraceEventType::sync_attempt), "sync_attempt");
  EXPECT_STREQ(obs::trace_event_name(TraceEventType::sync_lock), "sync_lock");
  EXPECT_STREQ(obs::trace_event_name(TraceEventType::sync_loss), "sync_loss");
  EXPECT_STREQ(obs::trace_event_name(TraceEventType::fault_applied), "fault");
  EXPECT_STREQ(obs::trace_event_name(TraceEventType::packet_done), "packet_done");
  EXPECT_STREQ(obs::trace_event_name(TraceEventType::adapt_window), "adapt_window");
  EXPECT_STREQ(obs::trace_event_name(TraceEventType::adapt_transition), "adapt_transition");
}

// The JSONL emitters promise byte-stable rendering: equal event bits must
// always produce equal bytes (that is what makes the resume byte-identity
// guarantee testable at the file level).
TEST(ObsTrace, EventJsonRenderingIsDeterministic) {
  obs::TraceEvent ev;
  ev.type = obs::TraceEventType::hop_decision;
  ev.flag = 2;  // excision
  ev.bw_index = 3;
  ev.hop = 1;
  ev.packet = 42;
  ev.v0 = 0.125;
  ev.v1 = 0.25;
  ev.v2 = 6.5;
  ev.v3 = 5.5;
  ev.v4 = -12.0;
  ev.v5 = -12.218487496163564;
  const std::string body = obs::trace_event_json_body(ev);
  EXPECT_EQ(body, obs::trace_event_json_body(ev));
  EXPECT_NE(body.find("\"event\":\"hop_decision\""), std::string::npos);
  EXPECT_NE(body.find("\"pkt\":42"), std::string::npos);
  EXPECT_NE(body.find("\"filter\":\"excision\""), std::string::npos);
  EXPECT_NE(body.find("\"est_jam_bw\":0.125"), std::string::npos);

  obs::TraceEvent loss;
  loss.type = obs::TraceEventType::sync_loss;
  loss.packet = 3;
  loss.hop = 2;
  EXPECT_EQ(obs::trace_event_json_body(loss),
            "\"event\":\"sync_loss\",\"pkt\":3,\"attempts\":2");
}

// ------------------------------------------------------------ golden traces

/// Compress the filter-decision sequence of a fixed-seed shard run into
/// one char per hop_decision event: n(one) / l(owpass) / e(xcision) /
/// d(egenerate fallback), with '|' separating packets.
std::string decision_sequence(const core::SimConfig& cfg, std::size_t n_packets) {
  obs::ShardTelemetry tele;
  const core::ShardSeeds seeds{cfg.channel_seed, cfg.channel_seed ^ 0xC4A77EULL,
                               cfg.jammer.seed};
  (void)core::run_link_shard(cfg, 0, n_packets, seeds, tele.obs());
  EXPECT_EQ(tele.trace.dropped(), 0u) << "golden run must retain every event";

  std::string seq;
  std::uint64_t last_packet = 0;
  bool first = true;
  for (const obs::TraceEvent& ev : tele.trace.events()) {
    if (ev.type != obs::TraceEventType::hop_decision) continue;
    if (!first && ev.packet != last_packet) seq += '|';
    first = false;
    last_packet = ev.packet;
    switch (ev.flag) {
      case 0: seq += 'n'; break;
      case 1: seq += 'l'; break;
      case 2: seq += 'e'; break;
      case 3: seq += 'd'; break;
      default: seq += '?'; break;
    }
  }
  return seq;
}

core::SimConfig golden_config() {
  core::SimConfig cfg;
  cfg.system.sync = core::SyncMode::preamble;
  cfg.payload_len = 4;
  cfg.snr_db = 15.0;
  cfg.jnr_db = 28.0;
  cfg.channel_seed = 11;
  cfg.jammer.seed = 99;
  return cfg;
}

TEST(GoldenTrace, ReactiveJammerFilterDecisions) {
  core::SimConfig cfg = golden_config();
  cfg.jammer.kind = core::JammerSpec::Kind::reactive;
  cfg.jammer.reaction_delay = 1024;

  // Golden, pinned 2026-08: the per-hop filter decisions of 6 fixed-seed
  // packets against the reactive jammer (packets that never achieved sync
  // lock contribute no hops). Any control-logic, sync or DSP change that
  // alters a single decision shows up here first.
  const std::string golden = "eennee|eeneee|eeeene|enenen";
  EXPECT_EQ(decision_sequence(cfg, 6), golden);
}

TEST(GoldenTrace, ToneJammerFilterDecisions) {
  core::SimConfig cfg = golden_config();
  cfg.jammer.kind = core::JammerSpec::Kind::tone;
  cfg.jammer.tone_freqs = {0.01};

  // Golden, pinned 2026-08: the classic excision target — the decision
  // alternates between excising the tone and low-passing, never "none".
  const std::string golden = "leleee|eelele|lleele|eeeeel|elelee|leeell";
  EXPECT_EQ(decision_sequence(cfg, 6), golden);
}

// The golden runs above also pin the eq. (10) threshold terms carried by
// every hop_decision event: the thresholds are configuration constants,
// so they must be byte-stable across the whole trace.
TEST(GoldenTrace, HopDecisionCarriesStableThresholdTerms) {
  core::SimConfig cfg = golden_config();
  cfg.jammer.kind = core::JammerSpec::Kind::tone;

  obs::ShardTelemetry tele;
  const core::ShardSeeds seeds{cfg.channel_seed, cfg.channel_seed ^ 0xC4A77EULL,
                               cfg.jammer.seed};
  (void)core::run_link_shard(cfg, 0, 4, seeds, tele.obs());

  const core::ControlLogicConfig logic;  // defaults used by golden_config
  std::size_t n_hops = 0;
  for (const obs::TraceEvent& ev : tele.trace.events()) {
    if (ev.type != obs::TraceEventType::hop_decision) continue;
    ++n_hops;
    EXPECT_EQ(ev.v3, logic.peak_over_median_db);   // in-band peak threshold
    EXPECT_GT(ev.v1, 0.0);                         // eq. (10) guard term
    EXPECT_LE(ev.v0, 1.0);                         // occupancy is a fraction
    EXPECT_GE(ev.v0, 0.0);
  }
  EXPECT_GT(n_hops, 0u);
}

// ---------------------------------------------------------- telemetry golden

/// 64-bit FNV-1a over little-endian words.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFU;
      h *= 0x100000001b3ULL;
    }
  }
};

/// The adaptive duty-cycle link of test_adapt_link plus clock-jump and
/// burst faults: one shard in which every event type fires and the ring
/// never drops.
core::SimConfig telemetry_golden_config() {
  core::SimConfig cfg;
  cfg.payload_len = 4;
  cfg.snr_db = 14.0;
  cfg.jnr_db = 30.0;
  cfg.jammer.kind = core::JammerSpec::Kind::duty_cycle;
  cfg.jammer.bandwidth_frac = 0.35;
  cfg.jammer.duty_period = 8192;
  cfg.jammer.duty_fraction = 0.5;
  cfg.adapt.enabled = true;
  cfg.adapt.detector.window_packets = 4;
  cfg.adapt.detector.bad_fraction = 0.45;
  cfg.adapt.detector.min_bad = 2;
  cfg.adapt.detector.trip_windows = 1;
  cfg.adapt.detector.clear_windows = 2;
  cfg.adapt.fallback_windows = 2;
  cfg.adapt.recovery_windows = 1;
  cfg.faults.p_clock_jump = 0.25;
  cfg.faults.p_burst = 0.25;
  return cfg;
}

// Every obs-only metric is a function of the event that records it, so a
// full ring recounts them exactly. The pinned hash covers the integer
// content only (counters, histogram bins, each event's type, flag, bw,
// hop and packet); doubles are left out because their last bits follow
// the host's libm variant.
TEST(GoldenTrace, EveryMetricIsDerivedFromItsEvent) {
  const core::SimConfig cfg = telemetry_golden_config();
  obs::ShardTelemetry tele;
  const core::ShardSeeds seeds{cfg.channel_seed, cfg.channel_seed ^ 0xC4A77EULL,
                               cfg.jammer.seed};
  (void)core::run_link_shard(cfg, 0, 32, seeds, tele.obs());
  ASSERT_EQ(tele.trace.dropped(), 0u) << "the recount needs every event";

  const obs::MetricsRegistry& reg = obs::link_registry();
  const obs::LinkIds& ids = obs::link_ids();
  const auto edges = [&](std::size_t id) { return reg.instruments()[id].bin_edges; };
  std::array<std::size_t, obs::kNumTraceEventTypes> seen{};
  std::uint64_t filter[3] = {0, 0, 0};
  std::uint64_t degenerate = 0;
  std::vector<std::uint64_t> est_bw(reg.histogram_bins(ids.est_jammer_bw), 0);
  std::vector<std::uint64_t> peak(reg.histogram_bins(ids.inband_peak_db), 0);
  std::vector<std::uint64_t> margin(reg.histogram_bins(ids.sync_margin), 0);
  std::optional<double> quality;
  std::optional<double> last_margin;
  std::optional<double> state;
  std::uint64_t window_packet = 0;
  for (const obs::TraceEvent& ev : tele.trace.events()) {
    ++seen[static_cast<std::size_t>(ev.type)];
    switch (ev.type) {
      case obs::TraceEventType::hop_decision:
        ++filter[ev.flag == 3 ? 0 : ev.flag];
        if (ev.flag == 3) ++degenerate;
        ++est_bw[obs::MetricsRegistry::bin_of(edges(ids.est_jammer_bw), ev.v0)];
        ++peak[obs::MetricsRegistry::bin_of(edges(ids.inband_peak_db), ev.v2)];
        break;
      case obs::TraceEventType::sync_lock:
        quality = ev.v3;
        last_margin = ev.v4;
        ++margin[obs::MetricsRegistry::bin_of(edges(ids.sync_margin), ev.v4)];
        break;
      case obs::TraceEventType::adapt_window:
        window_packet = ev.packet;
        break;
      case obs::TraceEventType::adapt_transition:
        state = static_cast<double>(ev.flag);
        EXPECT_EQ(ev.packet, window_packet) << "a transition carries its window's packet";
        break;
      default:
        break;
    }
  }
  for (std::size_t type = 0; type < seen.size(); ++type) {
    EXPECT_GT(seen[type], 0u)
        << obs::trace_event_name(static_cast<obs::TraceEventType>(type)) << " never fired";
  }
  using T = obs::TraceEventType;
  const auto count = [&](T type) { return seen[static_cast<std::size_t>(type)]; };
  const obs::MetricsShard& m = tele.metrics;
  EXPECT_EQ(m.counter(ids.hops), count(T::hop_decision));
  EXPECT_EQ(m.counter(ids.filter_none), filter[0]);
  EXPECT_EQ(m.counter(ids.filter_lowpass), filter[1]);
  EXPECT_EQ(m.counter(ids.filter_excision), filter[2]);
  EXPECT_EQ(m.counter(ids.degenerate_psd), degenerate);
  EXPECT_EQ(m.histogram(ids.est_jammer_bw), est_bw);
  EXPECT_EQ(m.histogram(ids.inband_peak_db), peak);
  EXPECT_EQ(m.counter(ids.sync_attempts), count(T::sync_attempt));
  EXPECT_EQ(m.counter(ids.sync_locks), count(T::sync_lock));
  EXPECT_EQ(m.gauge(ids.last_sync_quality), quality);
  EXPECT_EQ(m.gauge(ids.last_sync_margin), last_margin);
  EXPECT_EQ(m.histogram(ids.sync_margin), margin);
  EXPECT_EQ(m.counter(ids.adapt_windows), count(T::adapt_window));
  EXPECT_EQ(m.gauge(ids.adapt_state), state);

  Fnv1a fnv;
  for (std::size_t id = 0; id < reg.size(); ++id) {
    if (reg.kind(id) == obs::InstrumentKind::counter) fnv.add(m.counter(id));
    if (reg.kind(id) == obs::InstrumentKind::histogram) {
      for (std::uint64_t bin : m.histogram(id)) fnv.add(bin);
    }
  }
  for (const obs::TraceEvent& ev : tele.trace.events()) {
    fnv.add(static_cast<std::uint64_t>(ev.type));
    fnv.add(ev.flag);
    fnv.add(ev.bw_index);
    fnv.add(ev.hop);
    fnv.add(ev.packet);
  }
  EXPECT_EQ(fnv.h, 0x6634a325ddb06cf8ULL) << std::hex << "0x" << fnv.h;
}

}  // namespace
