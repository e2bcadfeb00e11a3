// Integration tests for the closed loop inside run_link_shard: the
// determinism contract with adaptation enabled (LinkStats and telemetry
// bit-identical at any thread count, kill-and-resume included), the
// epoch-0 invariant (an enabled-but-never-tripped loop is bit-identical
// to a disabled one), and the headline acceptance criterion — against
// each non-stationary adversary the adaptive link delivers at least as
// many packets as the static hop pattern.

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/link_simulator.hpp"
#include "link_stats_testing.hpp"
#include "obs/link_obs.hpp"
#include "runtime/campaign.hpp"
#include "runtime/checkpoint_journal.hpp"
#include "runtime/parallel_link_runner.hpp"

namespace bhss::runtime {
namespace {

/// Fast-acting loop sized for test-scale runs: 4-packet windows, one
/// jammed window trips, one clean window starts recovery.
adapt::AdaptConfig fast_loop() {
  adapt::AdaptConfig a;
  a.enabled = true;
  a.detector.window_packets = 4;
  a.detector.bad_fraction = 0.45;
  a.detector.min_bad = 2;
  a.detector.trip_windows = 1;
  a.detector.clear_windows = 2;
  a.fallback_windows = 2;
  a.recovery_windows = 1;
  return a;
}

core::SimConfig adaptive_sim(core::JammerSpec::Kind jammer) {
  core::SimConfig cfg;
  cfg.payload_len = 4;
  cfg.n_packets = 32;
  cfg.snr_db = 14.0;
  cfg.jnr_db = 30.0;
  cfg.jammer.kind = jammer;
  cfg.jammer.bandwidth_frac = 0.35;
  cfg.jammer.duty_period = 8192;
  cfg.jammer.duty_fraction = 0.5;
  cfg.adapt = fast_loop();
  return cfg;
}

using testutil::expect_identical;

TEST(AdaptLink, ThreadCountDoesNotChangeTheStatistics) {
  const core::SimConfig cfg = adaptive_sim(core::JammerSpec::Kind::duty_cycle);
  ParallelLinkRunner one({.n_threads = 1, .n_shards = 4});
  ParallelLinkRunner eight({.n_threads = 8, .n_shards = 4});
  const core::LinkStats s1 = one.run(cfg);
  const core::LinkStats s8 = eight.run(cfg);
  // Not vacuous: the loop must actually have engaged in this run.
  EXPECT_GT(s1.adapt_transitions, 0U);
  EXPECT_GT(s1.adapt_packets_adapted, 0U);
  expect_identical(s1, s8);
}

TEST(AdaptLink, GoldenTracesAreBitIdenticalAcrossThreadCounts) {
  const core::SimConfig cfg = adaptive_sim(core::JammerSpec::Kind::duty_cycle);
  ParallelLinkRunner one({.n_threads = 1, .n_shards = 4});
  ParallelLinkRunner eight({.n_threads = 8, .n_shards = 4});
  std::vector<obs::ShardTelemetry> t1;
  std::vector<obs::ShardTelemetry> t8;
  (void)one.run(cfg, &t1);
  (void)eight.run(cfg, &t8);
  ASSERT_EQ(t1.size(), t8.size());

  std::size_t adapt_events = 0;
  for (std::size_t shard = 0; shard < t1.size(); ++shard) {
    EXPECT_EQ(obs::serialize_telemetry(t1[shard]), obs::serialize_telemetry(t8[shard]))
        << "shard " << shard;
    for (const obs::TraceEvent& ev : t1[shard].trace.events()) {
      if (ev.type == obs::TraceEventType::adapt_window ||
          ev.type == obs::TraceEventType::adapt_transition) {
        ++adapt_events;
      }
    }
  }
  EXPECT_GT(adapt_events, 0U) << "adaptation events must appear in the golden traces";
  EXPECT_EQ(obs::serialize_telemetry(obs::merge_telemetry(t1, t1.size())),
            obs::serialize_telemetry(obs::merge_telemetry(t8, t8.size())));
}

TEST(AdaptLink, AdaptationSurvivesKillAndResumeBitIdentically) {
  const core::SimConfig cfg = adaptive_sim(core::JammerSpec::Kind::duty_cycle);
  const std::string path = ::testing::TempDir() + "bhss_adapt_killresume_" +
                           std::to_string(::getpid()) + ".journal";
  std::remove(path.c_str());

  CampaignRunner reference({.n_threads = 2, .n_shards = 4});
  const core::LinkStats expected = reference.run_point("pt", cfg);
  EXPECT_GT(expected.adapt_transitions, 0U);

  {
    CheckpointJournal journal;
    journal.open(path, "unit", 2, "abc123", false);
    CampaignRunner runner({.n_threads = 8, .n_shards = 4}, &journal);
    expect_identical(runner.run_point("pt", cfg), expected);
  }
  // Simulate a SIGKILL that lost the journal tail: keep header + 2 of the
  // 4 shard records, then resume — the re-run shards must reproduce their
  // adaptation trajectories (counters included) exactly.
  {
    std::ifstream in(path, std::ios::binary);
    std::string kept;
    std::string line;
    for (std::size_t i = 0; i < 3 && std::getline(in, line); ++i) kept += line + "\n";
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << kept;
  }
  CheckpointJournal journal;
  journal.open(path, "unit", 2, "abc123", true);
  EXPECT_EQ(journal.replayed_records(), 2U);
  CampaignRunner resumed({.n_threads = 1, .n_shards = 4}, &journal);
  expect_identical(resumed.run_point("pt", cfg), expected);
  std::remove(path.c_str());
}

TEST(AdaptLink, UntrippedLoopIsBitIdenticalToDisabled) {
  // Clean channel: the detector never trips, every packet flies on plan
  // epoch 0, and the enabled run must be bit-identical to the disabled
  // one — the no-override code path is exactly the legacy path.
  core::SimConfig cfg = adaptive_sim(core::JammerSpec::Kind::none);
  cfg.snr_db = 25.0;
  ParallelLinkRunner runner({.n_threads = 2, .n_shards = 4});
  const core::LinkStats adaptive = runner.run(cfg);
  EXPECT_EQ(adaptive.adapt_transitions, 0U);
  EXPECT_EQ(adaptive.adapt_packets_adapted, 0U);
  cfg.adapt = {};
  ASSERT_FALSE(cfg.adapt.enabled);
  expect_identical(adaptive, runner.run(cfg));
}

// ------------------------------------------------ adaptive beats static

struct Adversary {
  const char* name;
  double jnr_db;  ///< contested operating point: degraded but not dead
  core::JammerSpec jammer;
};

class AdaptiveVsStatic : public ::testing::TestWithParam<Adversary> {};

TEST_P(AdaptiveVsStatic, AdaptiveDeliversAtLeastAsManyPackets) {
  // The acceptance criterion of the adapt layer: against each
  // non-stationary adversary, closing the loop must not lose packets
  // relative to the static configured hop pattern. 480 packets over 8
  // shards = 60 per shard = 15 detector windows, so the steady state
  // dominates the per-shard learning transient; the per-adversary JNR
  // keeps the static link degraded-but-alive (at the rail the comparison
  // is vacuous both ways).
  core::SimConfig cfg;
  cfg.n_packets = 480;
  cfg.snr_db = 16.0;
  cfg.jnr_db = GetParam().jnr_db;
  cfg.channel_seed = 7;
  cfg.jammer = GetParam().jammer;

  ParallelLinkRunner runner({.n_threads = 8, .n_shards = 8});
  const core::LinkStats fixed = runner.run(cfg);
  cfg.adapt = fast_loop();
  const core::LinkStats adaptive = runner.run(cfg);

  EXPECT_GT(fixed.per(), 0.0) << "operating point too easy: jammer is harmless";
  EXPECT_GT(adaptive.adapt_jam_episodes, 0U) << "loop never engaged";
  EXPECT_LE(adaptive.per(), fixed.per())
      << GetParam().name << ": static per " << fixed.per() << ", adaptive per "
      << adaptive.per();
}

std::vector<Adversary> adversaries() {
  std::vector<Adversary> out;
  {
    core::JammerSpec duty;
    duty.kind = core::JammerSpec::Kind::duty_cycle;
    duty.bandwidth_frac = 0.35;
    duty.duty_period = 8192;
    duty.duty_fraction = 0.5;
    out.push_back({"duty_cycle", 22.0, duty});
  }
  {
    core::JammerSpec sweep;
    sweep.kind = core::JammerSpec::Kind::band_sweep;
    sweep.sweep_lo = -0.2;
    sweep.sweep_hi = 0.2;
    sweep.sweep_steps = 8;
    sweep.dwell_samples = 4096;
    sweep.sweep_bw_frac = 0.08;
    out.push_back({"band_sweep", 22.0, sweep});
  }
  {
    core::JammerSpec est;
    est.kind = core::JammerSpec::Kind::estimating;
    est.estimation_hops = 32;
    out.push_back({"estimating", 20.0, est});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(NonStationaryJammers, AdaptiveVsStatic,
                         ::testing::ValuesIn(adversaries()),
                         [](const ::testing::TestParamInfo<Adversary>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace bhss::runtime
