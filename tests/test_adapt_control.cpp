// Unit tests for the closed-loop adaptation layer (src/adapt): the
// sliding-window jam detector's window math and two-edge debounce, the
// hop adapter's occupancy-floor reweighting and exact snap-back, and the
// resilience controller's NOMINAL -> DEGRADED -> FALLBACK -> RECOVERING
// state machine driven by scripted packet streams. Everything here is a
// pure fold over its inputs, so the tests assert exact (often bitwise)
// outcomes, not statistical ones.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adapt/resilience_controller.hpp"
#include "core/contracts.hpp"

namespace bhss::adapt {
namespace {

// ---------------------------------------------------------- JamDetector

JamDetectorConfig fast_detector() {
  JamDetectorConfig d;
  d.window_packets = 4;
  d.bad_fraction = 0.5;
  d.min_bad = 2;
  d.trip_windows = 2;
  d.clear_windows = 2;
  return d;
}

/// Feed one whole window with `bad` losses followed by deliveries.
WindowVerdict feed_window(JamDetector& det, std::size_t bad) {
  WindowVerdict v;
  for (std::size_t i = 0; i < det.config().window_packets; ++i) {
    v = det.note_packet(/*delivered=*/i >= bad, /*sync_lost=*/false);
  }
  return v;
}

TEST(AdaptDetector, WindowClosesAtConfiguredLength) {
  JamDetector det(fast_detector(), 4);
  EXPECT_FALSE(det.note_packet(true, false).closed);
  EXPECT_FALSE(det.note_packet(true, false).closed);
  EXPECT_FALSE(det.note_packet(true, false).closed);
  const WindowVerdict v = det.note_packet(true, false);
  EXPECT_TRUE(v.closed);
  EXPECT_EQ(v.ordinal, 1U);
  EXPECT_EQ(v.bad, 0U);
  EXPECT_FALSE(v.jammed);
  EXPECT_EQ(det.windows_closed(), 1U);
}

TEST(AdaptDetector, SyncLossCountsAsBad) {
  JamDetector det(fast_detector(), 4);
  det.note_packet(true, true);  // delivered but sync was lost en route
  det.note_packet(false, false);
  det.note_packet(true, true);
  const WindowVerdict v = det.note_packet(true, false);
  EXPECT_EQ(v.bad, 3U);
  EXPECT_TRUE(v.jammed);
}

TEST(AdaptDetector, TripNeedsFractionStrictlyAbove) {
  JamDetector det(fast_detector(), 4);
  // 2/4 = 0.5 is NOT > 0.5: the gate is strict, so an exactly-threshold
  // window stays clean.
  EXPECT_FALSE(feed_window(det, 2).jammed);
  EXPECT_TRUE(feed_window(det, 3).jammed);
}

TEST(AdaptDetector, MinBadFloorStopsShortWindowTrips) {
  JamDetectorConfig d = fast_detector();
  d.window_packets = 2;
  d.bad_fraction = 0.4;
  d.min_bad = 2;
  JamDetector det(d, 4);
  // 1/2 = 0.5 > 0.4 but one bad packet is below the absolute floor.
  EXPECT_FALSE(feed_window(det, 1).jammed);
  EXPECT_TRUE(feed_window(det, 2).jammed);
}

TEST(AdaptDetector, TripDebounceGoesThroughSuspect) {
  JamDetector det(fast_detector(), 4);  // trip_windows = 2
  EXPECT_EQ(det.state(), JamState::clear);
  WindowVerdict v = feed_window(det, 4);
  EXPECT_EQ(det.state(), JamState::suspect);
  EXPECT_EQ(v.streak, 1U);
  v = feed_window(det, 4);
  EXPECT_EQ(det.state(), JamState::jammed);
  EXPECT_EQ(v.streak, 2U);
  EXPECT_EQ(det.windows_jammed(), 2U);
}

TEST(AdaptDetector, OneCleanWindowRetiresSuspect) {
  JamDetector det(fast_detector(), 4);
  feed_window(det, 4);
  ASSERT_EQ(det.state(), JamState::suspect);
  feed_window(det, 0);
  EXPECT_EQ(det.state(), JamState::clear);
}

TEST(AdaptDetector, ClearDebounceHoldsThroughOneCleanWindow) {
  JamDetector det(fast_detector(), 4);  // clear_windows = 2
  feed_window(det, 4);
  feed_window(det, 4);
  ASSERT_EQ(det.state(), JamState::jammed);
  feed_window(det, 0);
  EXPECT_EQ(det.state(), JamState::jammed);  // one clean window is not enough
  feed_window(det, 4);                       // relapse resets the clean streak
  feed_window(det, 0);
  EXPECT_EQ(det.state(), JamState::jammed);
  feed_window(det, 0);
  EXPECT_EQ(det.state(), JamState::clear);
}

TEST(AdaptDetector, SuspicionCountsOnlyFilteredHopsAndDecays) {
  JamDetector det(fast_detector(), 3);
  det.note_hop(0, true);
  det.note_hop(0, true);
  det.note_hop(0, true);
  det.note_hop(1, false);   // unfiltered hop: no evidence
  det.note_hop(99, true);   // out-of-range index: ignored, not UB
  EXPECT_EQ(det.suspicion(), (std::vector<std::uint32_t>{3, 0, 0}));
  det.decay_suspicion();
  EXPECT_EQ(det.suspicion(), (std::vector<std::uint32_t>{1, 0, 0}));
  det.decay_suspicion();
  EXPECT_EQ(det.suspicion(), (std::vector<std::uint32_t>{0, 0, 0}));
}

TEST(AdaptDetector, RejectsDegenerateConfig) {
  JamDetectorConfig d = fast_detector();
  d.window_packets = 0;
  EXPECT_THROW(JamDetector(d, 4), contract_violation);
  d = fast_detector();
  d.trip_windows = 0;
  EXPECT_THROW(JamDetector(d, 4), contract_violation);
  EXPECT_THROW(JamDetector(fast_detector(), 0), contract_violation);
}

// ----------------------------------------------------------- HopAdapter

TEST(HopAdapter, NormalisesBaseDistribution) {
  HopAdapter a({2.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(a.base()[0], 0.5);
  EXPECT_DOUBLE_EQ(a.base()[1], 0.25);
  EXPECT_DOUBLE_EQ(a.base()[2], 0.25);
  EXPECT_TRUE(a.at_base());
}

TEST(HopAdapter, ReweightMovesMassAwayButHonoursFloor) {
  constexpr double kFloor = 0.02;  // hop_adapter.cpp's kMinOccupancy
  HopAdapter a({0.25, 0.25, 0.25, 0.25});
  const std::vector<std::uint32_t> suspicion = {4, 0, 0, 0};
  a.reweight(suspicion);
  double sum = 0.0;
  for (const double p : a.probs()) {
    EXPECT_GE(p, kFloor);  // nothing starves
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_LT(a.probs()[0], 0.25);  // the suspected band lost mass
  EXPECT_GT(a.probs()[1], 0.25);  // ... which went to the clean bands
  EXPECT_FALSE(a.at_base());
}

TEST(HopAdapter, DeweightCapBoundsThePunishment) {
  HopAdapter capped({0.5, 0.5});
  HopAdapter flooded({0.5, 0.5});
  HopAdapter below({0.5, 0.5});
  capped.reweight(std::vector<std::uint32_t>{4, 0});  // hop_adapter.cpp's kDeweightCap
  flooded.reweight(std::vector<std::uint32_t>{1000000, 0});
  below.reweight(std::vector<std::uint32_t>{3, 0});
  EXPECT_EQ(capped.probs(), flooded.probs());  // bitwise: same fold
  EXPECT_GT(below.probs()[0], capped.probs()[0]);  // hits below the cap still count
}

TEST(HopAdapter, FallbackIsUniform) {
  HopAdapter a({0.7, 0.2, 0.1, 0.0});
  a.fall_back_uniform();
  for (const double p : a.probs()) EXPECT_DOUBLE_EQ(p, 0.25);
  EXPECT_FALSE(a.at_base());
}

TEST(HopAdapter, RecoverySnapsExactlyOntoBase) {
  HopAdapter a({0.6, 0.3, 0.1});
  const std::vector<double> base = a.base();
  a.fall_back_uniform();
  std::size_t steps = 0;
  while (!a.recover_toward_base()) {
    ASSERT_LT(++steps, 200U) << "recovery must converge";
  }
  // Not just close: bitwise equal, so a recovered plan is the base plan.
  EXPECT_EQ(a.probs(), base);
  EXPECT_TRUE(a.at_base());
  EXPECT_TRUE(a.recover_toward_base());  // idempotent at the fixed point
}

TEST(HopAdapter, RejectsDegenerateConfig) {
  EXPECT_THROW(HopAdapter({}), contract_violation);
  EXPECT_THROW(HopAdapter({0.0, 0.0}), contract_violation);
  // 50 bands * the 0.02 floor >= 1: nothing left to distribute.
  EXPECT_THROW(HopAdapter(std::vector<double>(50, 1.0)), contract_violation);
  EXPECT_NO_THROW(HopAdapter(std::vector<double>(49, 1.0)));
}

// ------------------------------------------------ ResilienceController

AdaptConfig fast_loop() {
  AdaptConfig a;
  a.enabled = true;
  a.detector.window_packets = 2;
  a.detector.bad_fraction = 0.5;
  a.detector.min_bad = 2;
  a.detector.trip_windows = 1;
  a.detector.clear_windows = 1;
  a.fallback_windows = 2;
  a.recovery_windows = 1;
  return a;
}

/// Feed one whole detection window of identical packet outcomes.
void feed_window(ResilienceController& c, bool delivered) {
  for (std::size_t i = 0; i < c.detector().config().window_packets; ++i) {
    c.on_packet({delivered, false, i});
  }
}

TEST(ResilienceController, StartsNominalOnTheBasePlan) {
  ResilienceController c(fast_loop(), {0.5, 0.3, 0.2}, 4);
  EXPECT_EQ(c.state(), LinkAdaptState::nominal);
  EXPECT_EQ(c.plan().epoch, 0U);
  EXPECT_EQ(c.plan().symbols_per_hop, 4U);
  EXPECT_DOUBLE_EQ(c.plan().probs[0], 0.5);
  EXPECT_EQ(c.counters().transitions, 0U);
}

TEST(ResilienceController, TripsToDegradedAndShortensDwell) {
  ResilienceController c(fast_loop(), {0.25, 0.25, 0.25, 0.25}, 4);
  feed_window(c, /*delivered=*/false);
  EXPECT_EQ(c.state(), LinkAdaptState::degraded);
  EXPECT_NE(c.plan().epoch, 0U);
  EXPECT_EQ(c.plan().symbols_per_hop, 2U);  // 4 >> kDegradedDwellShift
  EXPECT_EQ(c.counters().jam_episodes, 1U);
  EXPECT_EQ(c.counters().windows_jammed, 1U);
  EXPECT_EQ(c.counters().transitions, 1U);
}

TEST(ResilienceController, DegradedDwellRespectsFloor) {
  ResilienceController c(fast_loop(), {0.5, 0.5}, 1);
  feed_window(c, false);
  ASSERT_EQ(c.state(), LinkAdaptState::degraded);
  EXPECT_EQ(c.plan().symbols_per_hop, 1U);  // max(1 >> 1, floor of 1 symbol)
}

TEST(ResilienceController, PersistentJammingEscalatesToUniformFallback) {
  ResilienceController c(fast_loop(), {0.7, 0.2, 0.1}, 4);
  feed_window(c, false);  // -> DEGRADED
  feed_window(c, false);  // 1st jammed window inside DEGRADED
  feed_window(c, false);  // 2nd: fallback_windows = 2 reached
  EXPECT_EQ(c.state(), LinkAdaptState::fallback);
  EXPECT_EQ(c.counters().fallbacks, 1U);
  EXPECT_EQ(c.plan().symbols_per_hop, 1U);  // minimum dwell
  for (const double p : c.plan().probs) EXPECT_DOUBLE_EQ(p, 1.0 / 3.0);
}

TEST(ResilienceController, FallbackPlanIsAFixedPointUnderJamming) {
  ResilienceController c(fast_loop(), {0.7, 0.2, 0.1}, 4);
  for (int w = 0; w < 3; ++w) feed_window(c, false);
  ASSERT_EQ(c.state(), LinkAdaptState::fallback);
  const std::uint32_t epoch = c.plan().epoch;
  for (int w = 0; w < 5; ++w) feed_window(c, false);
  EXPECT_EQ(c.state(), LinkAdaptState::fallback);
  EXPECT_EQ(c.plan().epoch, epoch);  // no plan churn while pinned down
}

TEST(ResilienceController, RecoverySnapsBackToNominalEpochZero) {
  ResilienceController c(fast_loop(), {0.5, 0.3, 0.2}, 4);
  feed_window(c, false);  // -> DEGRADED
  ASSERT_EQ(c.state(), LinkAdaptState::degraded);
  feed_window(c, true);   // detector clears -> RECOVERING at base dwell
  ASSERT_EQ(c.state(), LinkAdaptState::recovering);
  EXPECT_EQ(c.plan().symbols_per_hop, 4U);
  std::size_t windows = 0;
  while (c.state() != LinkAdaptState::nominal) {
    feed_window(c, true);
    ASSERT_LT(++windows, 200U) << "recovery must converge";
  }
  EXPECT_EQ(c.counters().recoveries, 1U);
  EXPECT_EQ(c.plan().epoch, 0U);  // exactly the base plan again
  EXPECT_DOUBLE_EQ(c.plan().probs[0], 0.5);
  EXPECT_DOUBLE_EQ(c.plan().probs[1], 0.3);
  EXPECT_DOUBLE_EQ(c.plan().probs[2], 0.2);
}

TEST(ResilienceController, RelapseDuringRecoveryStartsANewEpisode) {
  ResilienceController c(fast_loop(), {0.5, 0.5}, 4);
  feed_window(c, false);
  feed_window(c, true);  // -> RECOVERING
  ASSERT_EQ(c.state(), LinkAdaptState::recovering);
  feed_window(c, false);
  EXPECT_EQ(c.state(), LinkAdaptState::degraded);
  EXPECT_EQ(c.counters().jam_episodes, 2U);
}

TEST(ResilienceController, SuspicionSteersTheReweighting) {
  ResilienceController c(fast_loop(), {0.25, 0.25, 0.25, 0.25}, 4);
  // Filter decisions repeatedly implicate bandwidth index 1.
  for (int h = 0; h < 8; ++h) c.note_hop(1, /*filtered=*/true);
  feed_window(c, false);
  ASSERT_EQ(c.state(), LinkAdaptState::degraded);
  EXPECT_LT(c.plan().probs[1], c.plan().probs[0]);
  EXPECT_LT(c.plan().probs[1], c.plan().probs[2]);
}

TEST(ResilienceController, PacketsAdaptedCountsNonBasePlanPacketsOnly) {
  ResilienceController c(fast_loop(), {0.5, 0.5}, 4);
  feed_window(c, true);   // nominal window: epoch 0 throughout
  EXPECT_EQ(c.counters().packets_adapted, 0U);
  feed_window(c, false);  // trips at the window close
  EXPECT_EQ(c.counters().packets_adapted, 0U);  // those packets flew on the base plan
  feed_window(c, true);
  EXPECT_EQ(c.counters().packets_adapted, 2U);  // adapted-window packets counted
}

TEST(ResilienceController, IdenticalInputsGiveBitIdenticalOutcomes) {
  // The controller is a pure fold: two instances fed the same scripted
  // stream agree bitwise on the plan and exactly on every counter.
  const std::vector<double> base = {0.4, 0.3, 0.2, 0.1};
  ResilienceController a(fast_loop(), base, 4);
  ResilienceController b(fast_loop(), base, 4);
  const auto script = [](ResilienceController& c) {
    for (std::size_t p = 0; p < 40; ++p) {
      c.note_hop(p % 4, (p % 3) == 0);
      const bool delivered = (p / 6) % 2 == 0;
      c.on_packet({delivered, (p % 11) == 0, p});
    }
  };
  script(a);
  script(b);
  EXPECT_EQ(a.plan().probs, b.plan().probs);
  EXPECT_EQ(a.plan().symbols_per_hop, b.plan().symbols_per_hop);
  EXPECT_EQ(a.plan().epoch, b.plan().epoch);
  EXPECT_EQ(a.state(), b.state());
  EXPECT_EQ(a.counters().transitions, b.counters().transitions);
  EXPECT_EQ(a.counters().packets_adapted, b.counters().packets_adapted);
}

TEST(ResilienceController, RejectsDegenerateConfig) {
  AdaptConfig a = fast_loop();
  EXPECT_THROW(ResilienceController(a, {0.5, 0.5}, 0), contract_violation);
  a.fallback_windows = 0;
  EXPECT_THROW(ResilienceController(a, {0.5, 0.5}, 4), contract_violation);
}

TEST(ResilienceController, StateNamesAreStable) {
  EXPECT_STREQ(to_string(LinkAdaptState::nominal), "nominal");
  EXPECT_STREQ(to_string(LinkAdaptState::degraded), "degraded");
  EXPECT_STREQ(to_string(LinkAdaptState::fallback), "fallback");
  EXPECT_STREQ(to_string(LinkAdaptState::recovering), "recovering");
  EXPECT_STREQ(to_string(JamState::clear), "clear");
  EXPECT_STREQ(to_string(JamState::suspect), "suspect");
  EXPECT_STREQ(to_string(JamState::jammed), "jammed");
}

}  // namespace
}  // namespace bhss::adapt
