// Fault-injection subsystem tests: golden per-seed fault plans (the
// random-stream layout is a compatibility surface — recorded campaigns
// must replay), plan purity across shards and threads, the
// injector/receiver contract (corrupt captures are scrubbed, clock jumps
// are re-acquired), and the end-to-end determinism of faulted
// Monte-Carlo runs.

#include <gtest/gtest.h>

#include <cmath>

#include "core/link_simulator.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "link_stats_testing.hpp"
#include "runtime/parallel_link_runner.hpp"

namespace bhss::fault {
namespace {

FaultConfig full_matrix() {
  FaultConfig cfg;
  cfg.set_uniform_rate(1.0);
  return cfg;
}

bool stats_finite(const core::LinkStats& s) {
  return std::isfinite(s.per()) && std::isfinite(s.ser()) &&
         std::isfinite(s.throughput_bps) && std::isfinite(s.airtime_s);
}

// ------------------------------------------------------------------ planning

TEST(FaultPlan, GoldenPlanForDefaultSeed) {
  // The exact event sequence for (seed 0xFA017, packet 0, 4096 samples).
  // These values pin the planner's random-stream layout: any change to the
  // draw order, the stream id, or SharedRandom itself re-rolls every
  // recorded fault campaign and must show up here.
  const FaultPlan plan = plan_faults(full_matrix(), 0, 4096);
  ASSERT_EQ(plan.events.size(), 7U);

  const FaultEvent expected[] = {
      {FaultKind::jammer_burst, 1493U, 327U, 30.0},
      {FaultKind::gain_step, 2841U, 819U, 0.056234132519034911},
      {FaultKind::sample_drop, 43U, 6U, 0.0},
      {FaultKind::sample_dup, 2323U, 43U, 0.0},
      {FaultKind::clock_jump, 93U, 54U, 0.44571089444956313},
      {FaultKind::cfo_step, 2486U, 0U, -3.7222811034625638e-05},
      {FaultKind::corrupt, 2329U, 12U, 0.0},
  };
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(plan.events[i].kind, expected[i].kind) << "event " << i;
    EXPECT_EQ(plan.events[i].offset, expected[i].offset) << "event " << i;
    EXPECT_EQ(plan.events[i].length, expected[i].length) << "event " << i;
    EXPECT_DOUBLE_EQ(plan.events[i].magnitude, expected[i].magnitude) << "event " << i;
  }
}

TEST(FaultPlan, PureFunctionOfSeedPacketAndLength) {
  const FaultConfig cfg = full_matrix();
  const FaultPlan a = plan_faults(cfg, 5, 8192);
  const FaultPlan b = plan_faults(cfg, 5, 8192);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].offset, b.events[i].offset);
    EXPECT_EQ(a.events[i].length, b.events[i].length);
    EXPECT_DOUBLE_EQ(a.events[i].magnitude, b.events[i].magnitude);
  }

  // Different packets draw different plans (same kinds, different draws).
  const FaultPlan c = plan_faults(cfg, 6, 8192);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    any_difference = any_difference || a.events[i].offset != c.events[i].offset ||
                     a.events[i].length != c.events[i].length;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultPlan, DefaultConfigIsFaultFree) {
  const FaultConfig cfg;
  EXPECT_FALSE(cfg.any());
  EXPECT_TRUE(plan_faults(cfg, 0, 4096).events.empty());
  const FaultInjector injector(cfg);
  EXPECT_FALSE(injector.enabled());
}

TEST(FaultPlan, ClockJumpStaysInsideTheAcquisitionRegion) {
  FaultConfig cfg;
  cfg.p_clock_jump = 1.0;
  for (std::uint64_t pkt = 0; pkt < 64; ++pkt) {
    const FaultPlan plan = plan_faults(cfg, pkt, 20000);
    ASSERT_EQ(plan.events.size(), 1U);
    EXPECT_EQ(plan.events[0].kind, FaultKind::clock_jump);
    EXPECT_LT(plan.events[0].offset, cfg.jump_offset_max);
    EXPECT_GE(plan.events[0].magnitude, 0.0);
    EXPECT_LT(plan.events[0].magnitude, 1.0);
  }
}

// ----------------------------------------------------------------- injection

TEST(FaultInjector, AppliesEveryKindOnceAndLogsIt) {
  const FaultInjector injector(full_matrix());
  dsp::cvec capture(4096, dsp::cf{1.0F, -1.0F});
  const FaultPlan plan = injector.plan_for_packet(0, capture.size());
  const FaultLog log = injector.apply(plan, capture);

  EXPECT_EQ(log.bursts, 1U);
  EXPECT_EQ(log.fades, 1U);
  EXPECT_EQ(log.drops, 1U);
  EXPECT_EQ(log.dups, 1U);
  EXPECT_EQ(log.clock_jumps, 1U);
  EXPECT_EQ(log.cfo_steps, 1U);
  EXPECT_EQ(log.corruptions, 1U);
  EXPECT_EQ(log.total(), 7U);

  // The golden plan drops 6, duplicates 43, inserts a 54-sample jump and
  // the fractional-delay tail's extra sample.
  EXPECT_EQ(capture.size(), 4096U - 6U + 43U + 54U + 1U);

  // The corrupt event really poisons the capture — the *receiver* owns
  // scrubbing, not the injector.
  bool any_bad = false;
  for (const dsp::cf& s : capture) {
    any_bad = any_bad || !std::isfinite(s.real()) || !std::isfinite(s.imag());
  }
  EXPECT_TRUE(any_bad);
}

TEST(FaultInjector, ApplyIsDeterministic) {
  const FaultInjector injector(full_matrix());
  dsp::cvec a(4096, dsp::cf{0.5F, 0.25F});
  dsp::cvec b = a;
  const FaultPlan plan = injector.plan_for_packet(3, a.size());
  (void)injector.apply(plan, a);
  (void)injector.apply(plan, b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit-identical, including any NaN payloads (compare representations
    // through ==: NaN != NaN, so compare finiteness class first).
    const bool fa = std::isfinite(a[i].real()) && std::isfinite(a[i].imag());
    const bool fb = std::isfinite(b[i].real()) && std::isfinite(b[i].imag());
    ASSERT_EQ(fa, fb) << "i=" << i;
    if (fa) {
      ASSERT_EQ(a[i], b[i]) << "i=" << i;
    }
  }
}

// ---------------------------------------------------------------- end-to-end

core::SimConfig faulted_link(double intensity) {
  core::SimConfig cfg;
  cfg.system.sync = core::SyncMode::preamble;
  cfg.snr_db = 18.0;
  cfg.n_packets = 32;
  cfg.channel_seed = 11;
  cfg.faults.set_uniform_rate(intensity);
  return cfg;
}

TEST(FaultedLink, FullMatrixKeepsEveryStatisticFinite) {
  const core::LinkStats stats = core::run_link(faulted_link(1.0));
  EXPECT_TRUE(stats_finite(stats));
  EXPECT_EQ(stats.packets, 32U);
  EXPECT_GT(stats.faults_injected, 0U);
  // Every capture carries a corrupt event at intensity 1, and every one of
  // them must be scrubbed rather than decoded into garbage.
  EXPECT_EQ(stats.corrupt_input_rejected, stats.packets);
}

TEST(FaultedLink, ThreadCountDoesNotChangeFaultedStatistics) {
  // The PR 2 determinism contract extends to faulted runs: for a fixed
  // (SimConfig, n_shards), the fault sequence and thus every statistic is
  // bit-identical at 1 and 8 threads.
  const core::SimConfig cfg = faulted_link(0.35);
  runtime::RunnerOptions one;
  one.n_threads = 1;
  one.n_shards = 8;
  runtime::RunnerOptions eight;
  eight.n_threads = 8;
  eight.n_shards = 8;
  const core::LinkStats a = runtime::ParallelLinkRunner(one).run(cfg);
  const core::LinkStats b = runtime::ParallelLinkRunner(eight).run(cfg);

  testutil::expect_identical(a, b);  // every field, doubles bit for bit
  EXPECT_TRUE(stats_finite(a));
  EXPECT_GT(a.faults_injected, 0U);
}

TEST(FaultedLink, ShardingDoesNotChangeTheFaultSequence) {
  // Per-packet plans key on the *global* packet index, so even different
  // shard counts inject identical fault sequences (stronger than the
  // fixed-shard contract, which only promises identity per n_shards).
  const core::SimConfig cfg = faulted_link(1.0);
  runtime::RunnerOptions a;
  a.n_threads = 2;
  a.n_shards = 4;
  runtime::RunnerOptions b;
  b.n_threads = 2;
  b.n_shards = 16;
  EXPECT_EQ(runtime::ParallelLinkRunner(a).run(cfg).faults_injected,
            runtime::ParallelLinkRunner(b).run(cfg).faults_injected);
}

TEST(FaultedLink, ClockJumpsAreReacquiredAndRecoveryBeatsSingleShot) {
  // Mid-run desync: every packet takes a clock glitch in the acquisition
  // region. With the bounded re-acquisition chain some of those frames
  // must come back on a retry, and the packet loss must sit strictly
  // below the single-shot receiver on the *same* fault sequence.
  core::SimConfig cfg;
  cfg.system.sync = core::SyncMode::preamble;
  cfg.snr_db = 18.0;
  cfg.n_packets = 48;
  cfg.channel_seed = 7;
  cfg.faults.p_clock_jump = 1.0;

  const core::LinkStats with_recovery = core::run_link(cfg);

  core::SimConfig single = cfg;
  single.system.reacquisition.max_attempts = 1;
  const core::LinkStats single_shot = core::run_link(single);

  // Identical fault exposure on both sides.
  ASSERT_EQ(with_recovery.faults_injected, single_shot.faults_injected);
  EXPECT_GT(with_recovery.reacquired, 0U);
  EXPECT_LT(with_recovery.per(), single_shot.per());
  EXPECT_LE(with_recovery.sync_lost, single_shot.sync_lost);
  EXPECT_TRUE(stats_finite(with_recovery));
  EXPECT_TRUE(stats_finite(single_shot));
}

// ------------------------------------------------- adversary x fault overlap

// The reactive jammer re-tunes at every hop boundary (hop.start +
// estimation_samples + reaction_delay); with per-packet fault rates at 1.0
// every capture also takes a transient fault, so fault windows and jammer
// transitions overlap constantly. These pins freeze the merged failure
// taxonomy for that combined stress: any change to fault ordering, jammer
// timeline arithmetic, or the receiver's scrub/reacquire paths shows up as
// an exact count diff, not a vague PER drift.

core::SimConfig reactive_faulted_link() {
  core::SimConfig cfg;
  cfg.system.sync = core::SyncMode::preamble;
  cfg.snr_db = 18.0;
  cfg.jnr_db = 12.0;
  cfg.n_packets = 32;
  cfg.channel_seed = 11;
  cfg.jammer.kind = core::JammerSpec::Kind::reactive;
  cfg.jammer.estimation_samples = 1024;  // sensing latency: re-tunes mid-hop
  cfg.jammer.reaction_delay = 1024;
  return cfg;
}

TEST(FaultedLink, ClockJumpsAcrossReactiveJammerHopBoundaries) {
  core::SimConfig cfg = reactive_faulted_link();
  cfg.faults.p_clock_jump = 1.0;

  const core::LinkStats s = core::run_link(cfg);
  EXPECT_TRUE(stats_finite(s));

  // Pinned taxonomy (recorded from this exact config; update only with an
  // understood semantic change, never to silence a diff).
  EXPECT_EQ(s.packets, 32U);
  EXPECT_EQ(s.faults_injected, 32U);
  EXPECT_EQ(s.detected, 31U);
  EXPECT_EQ(s.ok, 2U);
  EXPECT_EQ(s.sync_lost, 1U);
  EXPECT_EQ(s.reacquired, 7U);
  EXPECT_EQ(s.corrupt_input_rejected, 0U);

  // The combined stress stays inside the determinism contract: 8 threads
  // reproduce the sequential taxonomy bit for bit.
  runtime::RunnerOptions eight;
  eight.n_threads = 8;
  eight.n_shards = 8;
  runtime::RunnerOptions one;
  one.n_threads = 1;
  one.n_shards = 8;
  const core::LinkStats a = runtime::ParallelLinkRunner(one).run(cfg);
  const core::LinkStats b = runtime::ParallelLinkRunner(eight).run(cfg);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.sync_lost, b.sync_lost);
  EXPECT_EQ(a.reacquired, b.reacquired);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.symbol_errors, b.symbol_errors);
}

TEST(FaultedLink, NaNBurstsAcrossReactiveJammerHopBoundaries) {
  // NaN corruption overlapping the jammer's re-tune points must never
  // reach the demodulator: every poisoned capture is scrubbed (the bad
  // samples excised, not the whole capture dropped), and the scrub
  // decision cannot depend on where the jammer happened to sit.
  core::SimConfig cfg = reactive_faulted_link();
  cfg.faults.p_corrupt = 1.0;
  cfg.faults.p_burst = 1.0;

  const core::LinkStats s = core::run_link(cfg);
  EXPECT_TRUE(stats_finite(s));

  EXPECT_EQ(s.packets, 32U);
  EXPECT_EQ(s.corrupt_input_rejected, 32U);
  EXPECT_EQ(s.faults_injected, 64U);
  EXPECT_EQ(s.detected, 32U);
  EXPECT_EQ(s.ok, 5U);
  EXPECT_EQ(s.sync_lost, 0U);
  EXPECT_EQ(s.symbol_errors, 151U);
  EXPECT_EQ(s.total_symbols, 1024U);
}

}  // namespace
}  // namespace bhss::fault
