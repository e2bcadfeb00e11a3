// The per-receiver excision filter-design cache: unit behaviour of the
// cache container, bit-identity of cached vs freshly designed taps at
// the ControlLogic level, and — the property the cache exists to keep —
// behaviour-neutrality at the link level: enabling or disabling the
// cache changes only how much design work runs, never a bit of LinkStats
// or of the telemetry outside the two cache counters themselves.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "channel/awgn.hpp"
#include "core/control_logic.hpp"
#include "core/filter_design_cache.hpp"
#include "core/link_simulator.hpp"
#include "core/transmitter.hpp"
#include "dsp/utils.hpp"
#include "link_stats_testing.hpp"
#include "obs/link_obs.hpp"
#include "runtime/parallel_link_runner.hpp"

namespace bhss::core {
namespace {

// ------------------------------------------------------------- container

FilterDesignKey key_of(std::size_t bw, std::uint64_t word) {
  FilterDesignKey k;
  k.bw_index = bw;
  k.n_bins = 64;
  k.mask = {word};
  return k;
}

FilterDesignEntry entry_of(float tap) {
  FilterDesignEntry e;
  e.taps = {dsp::cf{tap, 0.0F}};
  e.group_delay = 0;
  return e;
}

TEST(FilterDesignCache, CountsHitsAndMisses) {
  FilterDesignCache cache(4);
  EXPECT_EQ(cache.find(key_of(0, 1)), nullptr);
  EXPECT_EQ(cache.misses(), 1U);
  cache.insert(key_of(0, 1), entry_of(2.0F));
  const FilterDesignEntry* e = cache.find(key_of(0, 1));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->taps[0].real(), 2.0F);
  EXPECT_EQ(cache.hits(), 1U);
  EXPECT_EQ(cache.misses(), 1U);
  // Same mask at a different bandwidth level is a different design.
  EXPECT_EQ(cache.find(key_of(1, 1)), nullptr);
  EXPECT_EQ(cache.misses(), 2U);
}

TEST(FilterDesignCache, CapacityZeroDisablesEverything) {
  FilterDesignCache cache(0);
  EXPECT_EQ(cache.find(key_of(0, 1)), nullptr);
  cache.insert(key_of(0, 1), entry_of(1.0F));
  EXPECT_EQ(cache.find(key_of(0, 1)), nullptr);
  EXPECT_EQ(cache.size(), 0U);
  EXPECT_EQ(cache.hits(), 0U);    // a disabled cache never counts:
  EXPECT_EQ(cache.misses(), 0U);  // the obs counters must stay silent
}

TEST(FilterDesignCache, FlushWhenFullIsDeterministic) {
  FilterDesignCache cache(2);
  cache.insert(key_of(0, 1), entry_of(1.0F));
  cache.insert(key_of(0, 2), entry_of(2.0F));
  EXPECT_EQ(cache.size(), 2U);
  cache.insert(key_of(0, 3), entry_of(3.0F));  // full -> flush, then insert
  EXPECT_EQ(cache.size(), 1U);
  EXPECT_EQ(cache.find(key_of(0, 1)), nullptr);
  EXPECT_NE(cache.find(key_of(0, 3)), nullptr);
}

// ----------------------------------------------------------- control logic

dsp::cvec jammed_slice(const BandwidthSet& bands, std::size_t level, std::uint64_t seed) {
  SystemConfig sys;
  sys.pattern = HopPattern::fixed(bands, level);
  sys.hopping = false;
  sys.fixed_bw_index = level;
  const BhssTransmitter tx(sys);
  const std::vector<std::uint8_t> payload(16, 0x5A);
  dsp::cvec wave = tx.transmit(payload, seed).samples;
  dsp::scale_to_power(dsp::cspan_mut{wave}, dsp::db_to_linear(15.0));
  // Strong CW tone well inside the band: the canonical excision target.
  const auto g = static_cast<float>(std::sqrt(dsp::db_to_linear(25.0)));
  for (std::size_t i = 0; i < wave.size(); ++i) {
    const float ph = 2.0F * 3.14159265F * 0.01F * static_cast<float>(i);
    wave[i] += dsp::cf{g * std::cos(ph), g * std::sin(ph)};
  }
  channel::AwgnSource noise(seed + 2);
  noise.add_to(dsp::cspan_mut{wave}, 1.0);
  return wave;
}

void expect_same_taps(const dsp::cvec& a, const dsp::cvec& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(dsp::cf)), 0) << "tap " << i;
  }
}

TEST(FilterDesignCache, RepeatDesignIsAHitAndBitIdentical) {
  const BandwidthSet bands = BandwidthSet::paper();
  const ControlLogic logic({}, bands);
  const dsp::cvec slice = jammed_slice(bands, 0, 77);

  const FilterDecision first = logic.force_excision(slice, 0);
  ASSERT_EQ(first.kind, FilterDecision::Kind::excision);
  EXPECT_EQ(logic.design_cache().hits(), 0U);
  EXPECT_EQ(logic.design_cache().misses(), 1U);
  ASSERT_NE(first.plan, nullptr);

  const FilterDecision second = logic.force_excision(slice, 0);
  expect_same_taps(first.taps, second.taps);
  EXPECT_EQ(second.group_delay, first.group_delay);
  EXPECT_EQ(second.plan, first.plan);  // the plan itself is shared, not rebuilt
  EXPECT_EQ(logic.design_cache().hits(), 1U);
  EXPECT_EQ(logic.design_cache().misses(), 1U);
}

TEST(FilterDesignCache, DisabledCacheYieldsBitIdenticalTaps) {
  const BandwidthSet bands = BandwidthSet::paper();
  ControlLogicConfig off;
  off.design_cache_capacity = 0;
  const ControlLogic cached({}, bands);
  const ControlLogic fresh(off, bands);
  const dsp::cvec slice = jammed_slice(bands, 0, 78);

  const FilterDecision a1 = cached.force_excision(slice, 0);
  const FilterDecision a2 = cached.force_excision(slice, 0);  // from the cache
  const FilterDecision b = fresh.force_excision(slice, 0);
  ASSERT_NE(b.plan, nullptr);  // a plan still ships with an uncached design
  expect_same_taps(a1.taps, b.taps);
  expect_same_taps(a2.taps, b.taps);
  EXPECT_EQ(fresh.design_cache().hits(), 0U);
  EXPECT_EQ(fresh.design_cache().misses(), 0U);
}

TEST(FilterDesignCache, WhiteningStyleIsNotCacheable) {
  const BandwidthSet bands = BandwidthSet::paper();
  ControlLogicConfig cfg;
  cfg.excision_style = ExcisionStyle::whitening;
  const ControlLogic logic(cfg, bands);
  const dsp::cvec slice = jammed_slice(bands, 0, 79);
  (void)logic.force_excision(slice, 0);
  (void)logic.force_excision(slice, 0);
  EXPECT_EQ(logic.design_cache().hits(), 0U);
  EXPECT_EQ(logic.design_cache().misses(), 0U);
}

TEST(FilterDesignCache, LowpassDecisionsCarryThePrecomputedPlan) {
  const BandwidthSet bands = BandwidthSet::paper();
  const ControlLogic logic({}, bands);
  const FilterDecision d1 = logic.force_lowpass(2);
  const FilterDecision d2 = logic.force_lowpass(2);
  ASSERT_NE(d1.plan, nullptr);
  EXPECT_EQ(d1.plan, d2.plan);  // from the bank, never the cache
  EXPECT_EQ(logic.design_cache().hits(), 0U);
  EXPECT_EQ(logic.design_cache().misses(), 0U);
}

// ------------------------------------------------------------- link level

SimConfig tone_jammed_sim() {
  SimConfig cfg;
  cfg.payload_len = 4;
  cfg.n_packets = 8;
  cfg.snr_db = 14.0;
  cfg.jnr_db = 25.0;
  cfg.jammer.kind = JammerSpec::Kind::tone;
  return cfg;
}

using testutil::expect_identical;

/// Remove one `"key":value` pair from a metrics JSON body fragment.
std::string strip_key(std::string body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = body.find(needle);
  if (pos == std::string::npos) return body;
  const std::size_t comma = body.find(',', pos);
  if (comma != std::string::npos) {
    body.erase(pos, comma + 1 - pos);
  } else {
    const std::size_t prev = body.rfind(',', pos);
    body.erase(prev == std::string::npos ? pos : prev);
  }
  return body;
}

std::uint64_t counter_value(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = body.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(body.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(FilterDesignCache, LinkStatsAndTelemetryAreCacheNeutral) {
  SimConfig cached_cfg = tone_jammed_sim();
  SimConfig fresh_cfg = tone_jammed_sim();
  fresh_cfg.system.logic.design_cache_capacity = 0;

  runtime::ParallelLinkRunner runner({.n_threads = 2, .n_shards = 4});
  std::vector<obs::ShardTelemetry> cached_t;
  std::vector<obs::ShardTelemetry> fresh_t;
  const LinkStats cached_s = runner.run(cached_cfg, &cached_t);
  const LinkStats fresh_s = runner.run(fresh_cfg, &fresh_t);

  // The statistics must not know whether the cache exists.
  expect_identical(cached_s, fresh_s);

  // Telemetry likewise, outside the two counters that ARE the cache.
  const obs::ShardTelemetry cached_m = obs::merge_telemetry(cached_t, 4);
  const obs::ShardTelemetry fresh_m = obs::merge_telemetry(fresh_t, 4);
  const std::string cached_body = obs::metrics_json_body(cached_m.metrics);
  const std::string fresh_body = obs::metrics_json_body(fresh_m.metrics);
  EXPECT_EQ(strip_key(strip_key(cached_body, "filter_cache_hits"), "filter_cache_misses"),
            strip_key(strip_key(fresh_body, "filter_cache_hits"), "filter_cache_misses"));

  // Observability: the tone jammer repeats the same jammed bins, so an
  // enabled cache must record activity (and hits); a disabled one, nothing.
  const std::uint64_t hits = counter_value(cached_body, "filter_cache_hits");
  const std::uint64_t misses = counter_value(cached_body, "filter_cache_misses");
  EXPECT_GT(hits + misses, 0U);
  EXPECT_GT(hits, 0U);
  EXPECT_EQ(counter_value(fresh_body, "filter_cache_hits"), 0U);
  EXPECT_EQ(counter_value(fresh_body, "filter_cache_misses"), 0U);
}

TEST(FilterDesignCache, ThreadCountDoesNotChangeCacheTelemetry) {
  // The cache is per shard, so the merged telemetry — cache counters
  // included — is a pure function of (SimConfig, n_shards): running the
  // same shards on 1 thread and on 8 must serialize byte-identically.
  const SimConfig cfg = tone_jammed_sim();
  runtime::ParallelLinkRunner one({.n_threads = 1, .n_shards = 4});
  runtime::ParallelLinkRunner eight({.n_threads = 8, .n_shards = 4});
  std::vector<obs::ShardTelemetry> t1;
  std::vector<obs::ShardTelemetry> t8;
  const LinkStats s1 = one.run(cfg, &t1);
  const LinkStats s8 = eight.run(cfg, &t8);
  expect_identical(s1, s8);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(obs::serialize_telemetry(t1[i]), obs::serialize_telemetry(t8[i])) << "shard " << i;
  }
  EXPECT_EQ(obs::serialize_telemetry(obs::merge_telemetry(t1, 4)),
            obs::serialize_telemetry(obs::merge_telemetry(t8, 4)));
}

}  // namespace
}  // namespace bhss::core
