// Property tests for the observability metrics layer: registry schema
// validation, deterministic histogram bin routing (NaN, ±inf, exact
// edges), merge algebra (associativity, commutativity where promised,
// rightmost-set-wins gauges), thread-count bit-identity of merged
// telemetry, the serialize/deserialize round trip, and the shared
// merge-order contract enforced by runtime::merge_point_results.

#include <gtest/gtest.h>

#include <cmath>
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

obs::MetricsRegistry small_registry() {
  obs::MetricsRegistry reg;
  (void)reg.add_counter("events");
  (void)reg.add_gauge("level");
  (void)reg.add_histogram("width", {0.0, 1.0, 2.0});
  return reg;
}

TEST(ObsMetrics, RegistryAssignsIdsAndSlots) {
  obs::MetricsRegistry reg;
  const std::size_t c0 = reg.add_counter("a");
  const std::size_t g0 = reg.add_gauge("b");
  const std::size_t c1 = reg.add_counter("c");
  const std::size_t h0 = reg.add_histogram("d", {0.0, 1.0});
  EXPECT_EQ(reg.size(), 4u);
  EXPECT_EQ(reg.n_counters(), 2u);
  EXPECT_EQ(reg.n_gauges(), 1u);
  EXPECT_EQ(reg.n_histograms(), 1u);
  EXPECT_EQ(reg.kind(c0), obs::InstrumentKind::counter);
  EXPECT_EQ(reg.kind(g0), obs::InstrumentKind::gauge);
  EXPECT_EQ(reg.slot(c0), 0u);
  EXPECT_EQ(reg.slot(c1), 1u);
  EXPECT_EQ(reg.slot(h0), 0u);
  // underflow + 1 interior + overflow + NaN
  EXPECT_EQ(reg.histogram_bins(h0), 4u);
  EXPECT_EQ(reg.find("c"), c1);
  EXPECT_FALSE(reg.find("missing").has_value());
}

TEST(ObsMetrics, RegistryRejectsInvalidDeclarations) {
  obs::MetricsRegistry reg;
  (void)reg.add_counter("ok");
  EXPECT_THROW((void)reg.add_counter("ok"), contract_violation);       // duplicate
  EXPECT_THROW((void)reg.add_counter(""), contract_violation);        // empty
  EXPECT_THROW((void)reg.add_counter("has space"), contract_violation);
  EXPECT_THROW((void)reg.add_counter("quo\"te"), contract_violation);
  EXPECT_THROW((void)reg.add_histogram("h1", {}), contract_violation);         // no edges
  EXPECT_THROW((void)reg.add_histogram("h2", {1.0}), contract_violation);      // one edge
  EXPECT_THROW((void)reg.add_histogram("h3", {1.0, 1.0}), contract_violation); // not increasing
  EXPECT_THROW((void)reg.add_histogram("h4", {2.0, 1.0}), contract_violation);
  EXPECT_THROW((void)reg.add_histogram("h5", {0.0, kInf}), contract_violation);  // non-finite
  EXPECT_THROW((void)reg.add_histogram("h6", {kNaN, 1.0}), contract_violation);
}

TEST(ObsMetrics, BinRoutingCoversEveryInput) {
  const std::vector<double> edges = {0.0, 1.0, 2.5};
  // Bins: 0 = underflow, 1 = [0,1), 2 = [1,2.5), 3 = overflow, 4 = NaN.
  EXPECT_EQ(obs::MetricsRegistry::bin_of(edges, -0.001), 0u);
  EXPECT_EQ(obs::MetricsRegistry::bin_of(edges, -kInf), 0u);
  EXPECT_EQ(obs::MetricsRegistry::bin_of(edges, 0.0), 1u);  // edge opens its bin
  EXPECT_EQ(obs::MetricsRegistry::bin_of(edges, 0.999), 1u);
  EXPECT_EQ(obs::MetricsRegistry::bin_of(edges, 1.0), 2u);  // exact interior edge
  EXPECT_EQ(obs::MetricsRegistry::bin_of(edges, 2.499), 2u);
  EXPECT_EQ(obs::MetricsRegistry::bin_of(edges, 2.5), 3u);  // last edge -> overflow
  EXPECT_EQ(obs::MetricsRegistry::bin_of(edges, 1e12), 3u);
  EXPECT_EQ(obs::MetricsRegistry::bin_of(edges, kInf), 3u);
  EXPECT_EQ(obs::MetricsRegistry::bin_of(edges, kNaN), 4u);
  EXPECT_EQ(obs::MetricsRegistry::bin_of(edges, -kNaN), 4u);
  // Negative zero compares equal to zero: same bin as +0.0.
  EXPECT_EQ(obs::MetricsRegistry::bin_of(edges, -0.0), 1u);
}

TEST(ObsMetrics, ShardRecordsAndReads) {
  const obs::MetricsRegistry reg = small_registry();
  obs::MetricsShard s(&reg);
  const std::size_t events = *reg.find("events");
  const std::size_t level = *reg.find("level");
  const std::size_t width = *reg.find("width");

  EXPECT_EQ(s.counter(events), 0u);
  EXPECT_FALSE(s.gauge(level).has_value());
  s.add(events);
  s.add(events, 4);
  s.set(level, 2.5);
  s.set(level, -1.0);  // last write wins
  s.observe(width, 0.5);
  s.observe(width, kNaN);
  s.observe(width, 3.0);
  EXPECT_EQ(s.counter(events), 5u);
  EXPECT_EQ(s.gauge(level), -1.0);
  // Bins: underflow, [0,1), [1,2), overflow, NaN.
  const std::vector<std::uint64_t> expected = {0, 1, 0, 1, 1};
  EXPECT_EQ(s.histogram(width), expected);
}

TEST(ObsMetrics, MergeIsAssociative) {
  const obs::MetricsRegistry reg = small_registry();
  const std::size_t events = *reg.find("events");
  const std::size_t level = *reg.find("level");
  const std::size_t width = *reg.find("width");

  obs::MetricsShard a(&reg), b(&reg), c(&reg);
  a.add(events, 1);
  a.observe(width, -5.0);
  b.add(events, 10);
  b.set(level, 1.0);
  b.observe(width, 0.5);
  c.add(events, 100);
  c.set(level, 7.0);
  c.observe(width, kNaN);

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
  EXPECT_EQ(left.counter(events), 111u);
  EXPECT_EQ(left.gauge(level), 7.0);  // rightmost set gauge wins
}

TEST(ObsMetrics, CountersAndHistogramsCommuteGaugesAreOrderSensitive) {
  const obs::MetricsRegistry reg = small_registry();
  const std::size_t events = *reg.find("events");
  const std::size_t level = *reg.find("level");
  const std::size_t width = *reg.find("width");

  obs::MetricsShard a(&reg), b(&reg);
  a.add(events, 3);
  a.set(level, 1.0);
  a.observe(width, 0.25);
  b.add(events, 9);
  b.set(level, 2.0);
  b.observe(width, 1.75);

  obs::MetricsShard ab = a;
  ab.merge_from(b);
  obs::MetricsShard ba = b;
  ba.merge_from(a);

  EXPECT_EQ(ab.counter(events), ba.counter(events));
  EXPECT_EQ(ab.histogram(width), ba.histogram(width));
  // Gauges keep the right operand's value — the reason the contract pins
  // a left fold in ascending shard order rather than "any order".
  EXPECT_EQ(ab.gauge(level), 2.0);
  EXPECT_EQ(ba.gauge(level), 1.0);
}

TEST(ObsMetrics, MergeRejectsForeignRegistry) {
  const obs::MetricsRegistry reg_a = small_registry();
  const obs::MetricsRegistry reg_b = small_registry();
  obs::MetricsShard a(&reg_a);
  obs::MetricsShard b(&reg_b);
  EXPECT_THROW(a.merge_from(b), contract_violation);
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
  for (std::size_t row = 0; row < core::kLinkStatsFields.size(); ++row) {
    const core::LinkStatsField& f = core::kLinkStatsFields[row];
    if (!f.projected) continue;
    EXPECT_EQ(merged.metrics.counter(obs::link_ids().stats[row]), f.bits(stats)) << f.name;
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
  EXPECT_THROW((void)runtime::merge_point_results(stats, &telemetry, 8, nullptr),
               contract_violation);

  telemetry.resize(4);
  obs::ShardTelemetry merged;
  EXPECT_NO_THROW((void)runtime::merge_point_results(stats, &telemetry, 8, &merged));
  EXPECT_NO_THROW((void)runtime::merge_point_results(stats, nullptr, 8, nullptr));
}

}  // namespace
