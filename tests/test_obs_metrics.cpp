// Property tests for the observability metrics layer: the link schema's
// ids, deterministic histogram bin routing (NaN, ±inf, exact edges),
// merge algebra (associativity, commutativity where promised,
// rightmost-set-wins gauges), thread-count bit-identity of merged
// telemetry, the serialize/deserialize round trip, byte pins of both
// wire formats, and the shared merge-order contract enforced by
// runtime::merge_point_results.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "core/link_simulator.hpp"
#include "obs/link_obs.hpp"
#include "obs/metrics.hpp"
#include "runtime/parallel_link_runner.hpp"

namespace {

using namespace bhss;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Three instruments of the link schema, one of each kind.
constexpr std::size_t kEvents = obs::kLinkIds.hops;
constexpr std::size_t kLevel = obs::kLinkIds.last_sync_quality;
constexpr std::size_t kWidth = obs::kLinkIds.est_jammer_bw;

TEST(ObsMetrics, LinkSchemaIdsFollowTheTable) {
  // Ten projected LinkStats rows, ten obs-only counters, three gauges and
  // three histograms, grouped by kind.
  EXPECT_EQ(obs::kNumInstruments, 26U);
  EXPECT_EQ(obs::kNumCounters, 20U);
  EXPECT_EQ(obs::kNumGauges, 3U);
  EXPECT_EQ(obs::kNumHistograms, 3U);
  std::size_t id = 0;
  for (const core::LinkStatsField& f : core::kLinkStatsFields) {
    if (f.projected) {
      EXPECT_STREQ(obs::kLinkInstruments[id++].name, f.name);
    }
  }
  EXPECT_EQ(obs::instrument_kind(kEvents), obs::InstrumentKind::counter);
  EXPECT_EQ(obs::instrument_kind(kLevel), obs::InstrumentKind::gauge);
  EXPECT_EQ(obs::instrument_kind(kWidth), obs::InstrumentKind::histogram);
  EXPECT_STREQ(obs::kLinkInstruments[obs::kLinkIds.filter_cache_hits].name, "filter_cache_hits");
  EXPECT_STREQ(obs::kLinkInstruments[kWidth].name, "est_jammer_bw");
  // underflow + 9 interior + overflow + NaN
  EXPECT_EQ(obs::MetricsShard().histogram(kWidth).size(), 12U);
}

TEST(ObsMetrics, BinRoutingCoversEveryInput) {
  const std::vector<double> edges = {0.0, 1.0, 2.5};
  // Bins: 0 = underflow, 1 = [0,1), 2 = [1,2.5), 3 = overflow, 4 = NaN.
  EXPECT_EQ(obs::bin_of(edges, -0.001), 0u);
  EXPECT_EQ(obs::bin_of(edges, -kInf), 0u);
  EXPECT_EQ(obs::bin_of(edges, 0.0), 1u);  // edge opens its bin
  EXPECT_EQ(obs::bin_of(edges, 0.999), 1u);
  EXPECT_EQ(obs::bin_of(edges, 1.0), 2u);  // exact interior edge
  EXPECT_EQ(obs::bin_of(edges, 2.499), 2u);
  EXPECT_EQ(obs::bin_of(edges, 2.5), 3u);  // last edge -> overflow
  EXPECT_EQ(obs::bin_of(edges, 1e12), 3u);
  EXPECT_EQ(obs::bin_of(edges, kInf), 3u);
  EXPECT_EQ(obs::bin_of(edges, kNaN), 4u);
  EXPECT_EQ(obs::bin_of(edges, -kNaN), 4u);
  // Negative zero compares equal to zero: same bin as +0.0.
  EXPECT_EQ(obs::bin_of(edges, -0.0), 1u);
}

TEST(ObsMetrics, ShardRecordsAndReads) {
  obs::MetricsShard s;
  EXPECT_EQ(s.counter(kEvents), 0u);
  EXPECT_FALSE(s.gauge(kLevel).has_value());
  s.add(kEvents);
  s.add(kEvents, 4);
  s.set(kLevel, 2.5);
  s.set(kLevel, -1.0);  // last write wins
  s.observe(kWidth, 0.5);
  s.observe(kWidth, kNaN);
  s.observe(kWidth, 3.0);
  EXPECT_EQ(s.counter(kEvents), 5u);
  EXPECT_EQ(s.gauge(kLevel), -1.0);
  // Bins: underflow, nine interior ([0.5,0.7) is the eighth), overflow, NaN.
  const std::vector<std::uint64_t> expected = {0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1};
  EXPECT_EQ(s.histogram(kWidth), expected);
}

TEST(ObsMetrics, MergeIsAssociative) {
  obs::MetricsShard a, b, c;
  a.add(kEvents, 1);
  a.observe(kWidth, -5.0);
  b.add(kEvents, 10);
  b.set(kLevel, 1.0);
  b.observe(kWidth, 0.5);
  c.add(kEvents, 100);
  c.set(kLevel, 7.0);
  c.observe(kWidth, kNaN);

  // (a ⊕ b) ⊕ c
  obs::MetricsShard left = a;
  left.merge_from(b);
  left.merge_from(c);
  // a ⊕ (b ⊕ c)
  obs::MetricsShard bc = b;
  bc.merge_from(c);
  obs::MetricsShard right = a;
  right.merge_from(bc);

  EXPECT_TRUE(left == right);
  EXPECT_EQ(left.counter(kEvents), 111u);
  EXPECT_EQ(left.gauge(kLevel), 7.0);  // rightmost set gauge wins
}

TEST(ObsMetrics, CountersAndHistogramsCommuteGaugesAreOrderSensitive) {
  obs::MetricsShard a, b;
  a.add(kEvents, 3);
  a.set(kLevel, 1.0);
  a.observe(kWidth, 0.25);
  b.add(kEvents, 9);
  b.set(kLevel, 2.0);
  b.observe(kWidth, 1.75);

  obs::MetricsShard ab = a;
  ab.merge_from(b);
  obs::MetricsShard ba = b;
  ba.merge_from(a);

  EXPECT_EQ(ab.counter(kEvents), ba.counter(kEvents));
  EXPECT_EQ(ab.histogram(kWidth), ba.histogram(kWidth));
  // Gauges keep the right operand's value — the reason the contract pins
  // a left fold in ascending shard order rather than "any order".
  EXPECT_EQ(ab.gauge(kLevel), 2.0);
  EXPECT_EQ(ba.gauge(kLevel), 1.0);
}

core::SimConfig telemetry_sim_config() {
  core::SimConfig cfg;
  cfg.system.sync = core::SyncMode::preamble;
  cfg.payload_len = 4;
  cfg.n_packets = 12;
  cfg.snr_db = 14.0;
  cfg.jnr_db = 25.0;
  cfg.jammer.kind = core::JammerSpec::Kind::fixed_bandwidth;
  cfg.jammer.bandwidth_frac = 0.15;
  return cfg;
}

/// Every projected LinkStats row: the merged metric under the field's name
/// equals the merged LinkStats field. Returns how many rows are nonzero.
std::size_t expect_projection_matches(const obs::ShardTelemetry& merged,
                                      const core::LinkStats& stats) {
  std::size_t nonzero = 0;
  std::size_t id = 0;  // the projected rows open the schema, in field order
  for (const core::LinkStatsField& f : core::kLinkStatsFields) {
    if (!f.projected) continue;
    EXPECT_EQ(merged.metrics.counter(id++), f.bits(stats)) << f.name;
    if (f.bits(stats) != 0) ++nonzero;
  }
  return nonzero;
}

TEST(ObsMetrics, ProjectedCountersEqualTheMergedLinkStats) {
  // A duty-cycled jammer, faults and a fast-acting closed loop, so the
  // fault, scrub and adaptation rows are exercised too.
  core::SimConfig cfg = telemetry_sim_config();
  cfg.n_packets = 32;
  cfg.jnr_db = 30.0;
  cfg.jammer.kind = core::JammerSpec::Kind::duty_cycle;
  cfg.jammer.bandwidth_frac = 0.35;
  cfg.jammer.duty_period = 8192;
  cfg.faults.set_uniform_rate(0.3);
  cfg.adapt.enabled = true;
  cfg.adapt.detector.window_packets = 4;
  cfg.adapt.detector.bad_fraction = 0.45;
  cfg.adapt.detector.min_bad = 2;
  cfg.adapt.detector.trip_windows = 1;
  constexpr std::size_t kShards = 4;
  runtime::ParallelLinkRunner runner({.n_threads = 2, .n_shards = kShards});
  std::vector<obs::ShardTelemetry> tele;
  const core::LinkStats stats = runner.run(cfg, &tele);
  EXPECT_GE(expect_projection_matches(obs::merge_telemetry(tele, kShards), stats), 8U);
}

TEST(ObsMetrics, MergedTelemetryIsThreadCountInvariant) {
  const core::SimConfig cfg = telemetry_sim_config();
  constexpr std::size_t kShards = 4;

  std::vector<std::string> per_thread_blobs;
  std::vector<std::string> merged_blobs;
  for (const std::size_t n_threads : {1u, 2u, 8u}) {
    runtime::ParallelLinkRunner runner({.n_threads = n_threads, .n_shards = kShards});
    std::vector<obs::ShardTelemetry> tele;
    const core::LinkStats stats = runner.run(cfg, &tele);
    ASSERT_EQ(tele.size(), kShards);
    EXPECT_GT(stats.packets, 0u);

    std::string all;
    for (const obs::ShardTelemetry& t : tele) {
      all += obs::serialize_telemetry(t);
      all += '\n';
    }
    per_thread_blobs.push_back(std::move(all));

    const obs::ShardTelemetry merged = obs::merge_telemetry(tele, kShards);
    merged_blobs.push_back(obs::serialize_telemetry(merged));
    expect_projection_matches(merged, stats);
  }
  // Bit-identity: the serialized bytes (doubles as IEEE-754 bit patterns)
  // must match across thread counts, shard by shard and merged.
  EXPECT_EQ(per_thread_blobs[0], per_thread_blobs[1]);
  EXPECT_EQ(per_thread_blobs[0], per_thread_blobs[2]);
  EXPECT_EQ(merged_blobs[0], merged_blobs[1]);
  EXPECT_EQ(merged_blobs[0], merged_blobs[2]);
}

TEST(ObsMetrics, TelemetryDoesNotPerturbTheSimulation) {
  const core::SimConfig cfg = telemetry_sim_config();
  runtime::ParallelLinkRunner runner({.n_threads = 1, .n_shards = 4});
  const core::LinkStats plain = runner.run(cfg);
  std::vector<obs::ShardTelemetry> tele;
  const core::LinkStats observed = runner.run(cfg, &tele);
  EXPECT_EQ(plain.ok, observed.ok);
  EXPECT_EQ(plain.detected, observed.detected);
  EXPECT_EQ(plain.symbol_errors, observed.symbol_errors);
  EXPECT_EQ(plain.airtime_s, observed.airtime_s);
}

TEST(ObsMetrics, SerializeRoundTripIsBitExact) {
  const core::SimConfig cfg = telemetry_sim_config();
  runtime::ParallelLinkRunner runner({.n_threads = 1, .n_shards = 2});
  std::vector<obs::ShardTelemetry> tele;
  (void)runner.run(cfg, &tele);

  for (const obs::ShardTelemetry& t : tele) {
    const std::string blob = obs::serialize_telemetry(t);
    obs::ShardTelemetry back;
    ASSERT_TRUE(obs::deserialize_telemetry(blob, back));
    EXPECT_TRUE(back.metrics == t.metrics);
    EXPECT_EQ(back.trace.total_recorded(), t.trace.total_recorded());
    EXPECT_EQ(back.trace.size(), t.trace.size());
    EXPECT_EQ(obs::serialize_telemetry(back), blob);  // fixed point
  }
}

TEST(ObsMetrics, DeserializeRejectsMalformedInput) {
  obs::ShardTelemetry out;
  EXPECT_FALSE(obs::deserialize_telemetry("", out));
  EXPECT_FALSE(obs::deserialize_telemetry("obs2 c 0 g 0 h 0 t 4 0 0", out));
  EXPECT_FALSE(obs::deserialize_telemetry("garbage", out));

  const std::string good = obs::serialize_telemetry(obs::ShardTelemetry{});
  ASSERT_TRUE(obs::deserialize_telemetry(good, out));
  EXPECT_FALSE(obs::deserialize_telemetry(good + " trailing", out));

  // A trace capacity no writer uses is refused, never allocated.
  const std::string cap = " t " + std::to_string(obs::kDefaultTraceCapacity) + " ";
  std::string big_capacity = good;
  big_capacity.replace(big_capacity.find(cap), cap.size(), " t 1000000000000 ");
  EXPECT_FALSE(obs::deserialize_telemetry(big_capacity, out));

  // A histogram bin near 2^64 is restored in one pass, not replayed once
  // per count, and round-trips.
  obs::ShardTelemetry one;
  one.metrics.observe(obs::link_ids().est_jammer_bw, 0.5);
  std::string big_count = obs::serialize_telemetry(one);
  big_count.replace(big_count.find(" 1 "), 3, " 18446744073709551615 ");
  ASSERT_TRUE(obs::deserialize_telemetry(big_count, out));
  EXPECT_EQ(obs::serialize_telemetry(out), big_count);

  // Each token is read whole: a count in decimal with no sign and no
  // overflow, a gauge's bits as exactly 16 hex digits. None of these
  // would re-serialize to the line it came from.
  const std::string bin = obs::serialize_telemetry(one);
  for (const char* count : {" -1 ", " +1 ", " 99999999999999999999999 "}) {
    std::string bad = bin;
    bad.replace(bad.find(" 1 "), 3, count);
    EXPECT_FALSE(obs::deserialize_telemetry(bad, out)) << count;
  }
  obs::ShardTelemetry gauge;
  gauge.metrics.set(obs::link_ids().last_sync_quality, 0.25);
  const std::string bits = obs::serialize_telemetry(gauge);
  ASSERT_NE(bits.find(" 3fd0000000000000 "), std::string::npos);
  ASSERT_TRUE(obs::deserialize_telemetry(bits, out));
  for (const char* word : {" 0x3fd00000000000 ", " -000000000000001 "}) {
    std::string bad = bits;
    bad.replace(bad.find(" 3fd0000000000000 "), 18, word);
    EXPECT_FALSE(obs::deserialize_telemetry(bad, out)) << word;
  }
}

// ------------------------------------------------------------ byte pins

/// 64-bit FNV-1a over the bytes of `s`.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The JSONL body of an empty shard names every instrument of the link
// schema in its order, prints unset gauges as null and each histogram as
// its full bin count.
TEST(ObsMetrics, EmptyShardJsonBodyIsPinned) {
  const obs::ShardTelemetry empty;
  EXPECT_EQ(obs::metrics_json_body(empty.metrics),
            "\"packets\":0,\"detected\":0,\"ok\":0,\"sync_lost\":0,\"reacquired\":0,"
            "\"corrupt_input_rejected\":0,\"faults_injected\":0,\"adapt_transitions\":0,"
            "\"adapt_windows_jammed\":0,\"adapt_packets_adapted\":0,\"sync_attempts\":0,"
            "\"sync_locks\":0,\"hops\":0,\"filter_none\":0,\"filter_lowpass\":0,"
            "\"filter_excision\":0,\"degenerate_psd\":0,\"filter_cache_hits\":0,"
            "\"filter_cache_misses\":0,\"adapt_windows\":0,\"last_sync_quality\":null,"
            "\"last_sync_margin\":null,\"adapt_state\":null,"
            "\"est_jammer_bw\":[0,0,0,0,0,0,0,0,0,0,0,0],"
            "\"inband_peak_db\":[0,0,0,0,0,0,0,0,0,0],"
            "\"sync_margin\":[0,0,0,0,0,0,0,0,0,0]");
}

// One shard filled through every recording path: LinkObs::record (every
// event type), LinkObs::add (the cache counters) and add_link_stats.
// Both wire formats are pinned byte for byte.
TEST(ObsMetrics, FilledShardBytesArePinned) {
  obs::ShardTelemetry t;
  const obs::LinkObs o = t.obs();
  using T = obs::TraceEventType;
  const auto record = [&](T type, std::uint8_t flag, double v0, double v2, double v3, double v4) {
    obs::TraceEvent ev;
    ev.type = type;
    ev.flag = flag;
    ev.bw_index = 2;
    ev.hop = 3;
    ev.packet = 5;
    ev.v0 = v0;
    ev.v1 = 0.25;
    ev.v2 = v2;
    ev.v3 = v3;
    ev.v4 = v4;
    ev.v5 = -0.5;
    o.record(ev);
  };
  record(T::hop_decision, 0, 0.0, 1.0, 5.5, -12.0);
  record(T::hop_decision, 1, 0.125, 4.0, 5.5, -12.0);
  record(T::hop_decision, 2, 0.5, 12.0, 5.5, -12.0);
  record(T::hop_decision, 3, kNaN, -kInf, 5.5, -12.0);
  record(T::hop_decision, 2, 2.0, 40.0, 5.5, -12.0);
  record(T::sync_attempt, 0, 0.5, 0.125, 0.0, 0.0);
  record(T::sync_attempt, 1, 0.5, 0.75, 4.5, 0.0);
  record(T::sync_lock, 1, 100.0, 0.0, 0.75, 4.5);
  record(T::sync_lock, 0, 200.0, 0.0, 0.875, 60.0);
  record(T::sync_loss, 0, 0.0, 0.0, 0.0, 0.0);
  record(T::fault_applied, 4, 16.0, 2.0, 0.0, 0.0);
  record(T::packet_done, 1, 2.0, 1.0, 0.0, 0.0);
  record(T::adapt_window, 1, 0.5, 2.0, 1.0, 0.0);
  record(T::adapt_window, 0, 0.25, 1.0, 0.0, 0.0);
  record(T::adapt_transition, 2, 1.0, 0.0, 3.0, 0.0);
  o.add(obs::link_ids().filter_cache_hits);
  o.add(obs::link_ids().filter_cache_misses);
  o.add(obs::link_ids().filter_cache_misses);
  core::LinkStats s;
  s.packets = 12;
  s.detected = 11;
  s.ok = 9;
  s.symbol_errors = 100;  // not projected: no metric carries it
  s.airtime_s = 0.125;
  s.sync_lost = 1;
  s.reacquired = 2;
  s.filter_fallback = 7;  // not projected either
  s.corrupt_input_rejected = 3;
  s.faults_injected = 4;
  s.adapt_transitions = 5;
  s.adapt_windows_jammed = 6;
  s.adapt_packets_adapted = 8;
  obs::add_link_stats(t.metrics, s);

  EXPECT_EQ(obs::metrics_json_body(t.metrics),
            "\"packets\":12,\"detected\":11,\"ok\":9,\"sync_lost\":1,\"reacquired\":2,"
            "\"corrupt_input_rejected\":3,\"faults_injected\":4,\"adapt_transitions\":5,"
            "\"adapt_windows_jammed\":6,\"adapt_packets_adapted\":8,\"sync_attempts\":2,"
            "\"sync_locks\":2,\"hops\":5,\"filter_none\":2,\"filter_lowpass\":1,"
            "\"filter_excision\":2,\"degenerate_psd\":1,\"filter_cache_hits\":1,"
            "\"filter_cache_misses\":2,\"adapt_windows\":2,\"last_sync_quality\":0.875,"
            "\"last_sync_margin\":60,\"adapt_state\":2,"
            "\"est_jammer_bw\":[0,1,0,1,0,0,0,0,1,0,1,1],"
            "\"inband_peak_db\":[1,1,0,1,0,0,1,0,1,0],"
            "\"sync_margin\":[0,0,0,1,0,0,0,0,1,0]");
  const std::string blob = obs::serialize_telemetry(t);
  EXPECT_EQ(blob.substr(0, blob.find(" t ")),
            "obs1 c 20 g 3 h 3 12 11 9 1 2 3 4 5 6 8 2 2 5 2 1 2 1 1 2 2 "
            "3fec000000000000 404e000000000000 4000000000000000 "
            "12 0 1 0 1 0 0 0 0 1 0 1 1 10 1 1 0 1 0 0 1 0 1 0 10 0 0 0 1 0 0 0 0 1 0");
  EXPECT_EQ(blob.size(), 1876u);
  EXPECT_EQ(fnv1a(blob), 0x4726c4c78fecda8aULL) << std::hex << "0x" << fnv1a(blob);
}

TEST(ObsMetrics, MergeTelemetryEnforcesShardCount) {
  std::vector<obs::ShardTelemetry> three(3);
  EXPECT_THROW((void)obs::merge_telemetry(three, 4), contract_violation);
  EXPECT_NO_THROW((void)obs::merge_telemetry(three, 3));
}

// The shared merge-order contract's enforcement point: stats and
// telemetry vectors that disagree on the shard count must refuse to
// merge instead of silently producing mismatched aggregates.
TEST(ObsMetrics, MergePointResultsRejectsMismatchedShardCounts) {
  std::vector<core::LinkStats> stats(4);
  std::vector<obs::ShardTelemetry> telemetry(3);
  EXPECT_THROW((void)runtime::merge_point_results(stats, &telemetry, 8), contract_violation);

  telemetry.resize(4);
  EXPECT_NO_THROW((void)runtime::merge_point_results(stats, &telemetry, 8));
  EXPECT_NO_THROW((void)runtime::merge_point_results(stats, nullptr, 8));
}

}  // namespace
