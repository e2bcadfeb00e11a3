// Tests for the parallel Monte-Carlo runtime: the fixed-shard thread
// pool's fork-join semantics, the cross-platform stability of the
// per-shard seed split (golden values), and the determinism contract —
// LinkStats from a ParallelLinkRunner are bit-identical for a fixed
// (seed, n_shards) no matter how many threads execute the shards, and a
// runner starts no more lanes than it has shards.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/link_simulator.hpp"
#include "core/shared_random.hpp"
#include "link_stats_testing.hpp"
#include "runtime/parallel_link_runner.hpp"
#include "runtime/thread_pool.hpp"

namespace bhss::runtime {
namespace {

// ----------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryShardExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4U);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for_shards(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1U);
  std::vector<int> hits(17, 0);  // plain vector: no other thread exists
  pool.parallel_for_shards(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 17);
}

TEST(ThreadPool, MoreShardsThanThreadsAndViceVersa) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for_shards(3, [&](std::size_t) { ++count; });  // fewer shards than threads
  EXPECT_EQ(count.load(), 3);
  count = 0;
  pool.parallel_for_shards(1000, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, ZeroShardsIsANoOp) {
  ThreadPool pool(2);
  pool.parallel_for_shards(0, [](std::size_t) { FAIL() << "shard ran"; });
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for_shards(10, [&](std::size_t) { ++count; });
    ASSERT_EQ(count.load(), 10);
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  const auto job = [&](std::size_t i) {
    if (i == 5) throw std::runtime_error("shard 5 failed");
    ++completed;
  };
  EXPECT_THROW(pool.parallel_for_shards(16, job), std::runtime_error);
  EXPECT_EQ(completed.load(), 15);
  // The pool survives an exception and keeps serving jobs.
  std::atomic<int> count{0};
  pool.parallel_for_shards(4, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, ExceptionOnInlinePool) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.parallel_for_shards(2, [](std::size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
}

TEST(ThreadPool, ConcurrentThrowsSurfaceTheLowestShard) {
  // Two shards throw on every round. Which one *reaches* its throw first
  // depends on scheduling, but the rethrown exception must always come
  // from the lowest shard index — a failed run reports the same error on
  // every repeat.
  ThreadPool pool(4);
  for (int round = 0; round < 40; ++round) {
    try {
      pool.parallel_for_shards(16, [](std::size_t i) {
        if (i == 2) throw std::runtime_error("shard 2 failed");
        if (i == 9) throw std::runtime_error("shard 9 failed");
      });
      FAIL() << "expected parallel_for_shards to throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 2 failed") << "round " << round;
    }
  }
}

// ----------------------------------------------------------------- seed split

TEST(SeedSplit, GoldenValuesAreStableAcrossPlatforms) {
  using core::SharedRandom;
  EXPECT_EQ(SharedRandom::split_seed(0, 0x0, 0), 0x238275BC38FCBE91ULL);
  EXPECT_EQ(SharedRandom::split_seed(7, 0x11, 0), 0x17A8F5D81CCFFA51ULL);
  EXPECT_EQ(SharedRandom::split_seed(7, 0x11, 1), 0x1B9281D19A71BCD1ULL);
  EXPECT_EQ(SharedRandom::split_seed(7, 0x22, 0), 0x83A324733EAC6E91ULL);
  EXPECT_EQ(SharedRandom::split_seed(99, 0x33, 5), 0x54A7AE062BF67CC7ULL);
  EXPECT_EQ(SharedRandom::split_seed(0xFFFFFFFFFFFFFFFFULL, 0x11, 15),
            0x9E560B8B017F322DULL);
}

TEST(SeedSplit, StreamsAndIndicesAreDecorrelated) {
  using core::SharedRandom;
  // No collisions across a block of (stream, index) pairs on one base.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t stream = 0; stream < 8; ++stream) {
    for (std::uint64_t index = 0; index < 64; ++index) {
      seen.push_back(SharedRandom::split_seed(12345, stream, index));
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(SeedSplit, ShardSeedTupleMatchesSplitSeed) {
  core::SimConfig cfg;
  cfg.channel_seed = 7;
  cfg.jammer.seed = 99;
  const core::ShardSeeds s0 = ParallelLinkRunner::shard_seeds(cfg, 0);
  EXPECT_EQ(s0.channel, core::SharedRandom::split_seed(7, 0x11, 0));
  EXPECT_EQ(s0.impairments, core::SharedRandom::split_seed(7, 0x22, 0));
  EXPECT_EQ(s0.jammer, core::SharedRandom::split_seed(99, 0x33, 0));
  const core::ShardSeeds s3 = ParallelLinkRunner::shard_seeds(cfg, 3);
  EXPECT_NE(s3.channel, s0.channel);
  EXPECT_NE(s3.impairments, s0.impairments);
  EXPECT_NE(s3.jammer, s0.jammer);
}

// ------------------------------------------------------- ParallelLinkRunner

core::SimConfig small_sim(core::JammerSpec::Kind jammer = core::JammerSpec::Kind::fixed_bandwidth) {
  core::SimConfig cfg;
  cfg.payload_len = 4;
  cfg.n_packets = 12;
  cfg.snr_db = 12.0;
  cfg.jnr_db = 20.0;
  cfg.jammer.kind = jammer;
  cfg.jammer.bandwidth_frac = 0.1;
  return cfg;
}

using testutil::expect_identical;  // bitwise: merge order is fixed

TEST(ParallelLinkRunner, ThreadCountDoesNotChangeTheStatistics) {
  const core::SimConfig cfg = small_sim();
  ParallelLinkRunner one({.n_threads = 1, .n_shards = 8});
  ParallelLinkRunner two({.n_threads = 2, .n_shards = 8});
  ParallelLinkRunner eight({.n_threads = 8, .n_shards = 8});

  const core::LinkStats s1 = one.run(cfg);
  const core::LinkStats s2 = two.run(cfg);
  const core::LinkStats s8 = eight.run(cfg);
  EXPECT_EQ(s1.packets, cfg.n_packets);
  expect_identical(s1, s2);
  expect_identical(s1, s8);
}

TEST(ParallelLinkRunner, RepeatedRunsAreIdentical) {
  const core::SimConfig cfg = small_sim(core::JammerSpec::Kind::hopping);
  ParallelLinkRunner runner({.n_threads = 4, .n_shards = 6});
  expect_identical(runner.run(cfg), runner.run(cfg));
}

TEST(ParallelLinkRunner, MorePacketsThanShardsAndFewer) {
  ParallelLinkRunner runner({.n_threads = 2, .n_shards = 16});
  core::SimConfig cfg = small_sim();
  cfg.n_packets = 5;  // most shards empty
  core::LinkStats s = runner.run(cfg);
  EXPECT_EQ(s.packets, 5U);
  EXPECT_GT(s.total_symbols, 0U);
  cfg.n_packets = 37;  // uneven split
  s = runner.run(cfg);
  EXPECT_EQ(s.packets, 37U);
}

TEST(ParallelLinkRunner, CleanChannelDeliversPackets) {
  core::SimConfig cfg = small_sim(core::JammerSpec::Kind::none);
  cfg.snr_db = 25.0;
  ParallelLinkRunner runner({.n_threads = 2, .n_shards = 4});
  const core::LinkStats s = runner.run(cfg);
  EXPECT_EQ(s.packets, cfg.n_packets);
  EXPECT_GT(s.ok, 0U);
  EXPECT_GT(s.throughput_bps, 0.0);
}

TEST(ParallelLinkRunner, ShardCountIsPartOfTheContract) {
  // Different n_shards = different random draws: statistically compatible
  // but not bit-identical. Guards against accidentally deriving seeds
  // from thread ids (which would make 8-vs-8 differ too).
  const core::SimConfig cfg = small_sim();
  ParallelLinkRunner a({.n_threads = 2, .n_shards = 4});
  ParallelLinkRunner b({.n_threads = 2, .n_shards = 5});
  const core::LinkStats sa = a.run(cfg);
  const core::LinkStats sb = b.run(cfg);
  EXPECT_EQ(sa.packets, sb.packets);
  // airtime is RNG-independent (same frames transmitted), so it must agree
  // even across shard counts.
  EXPECT_DOUBLE_EQ(sa.airtime_s, sb.airtime_s);
}

/// Threads of this process, as /proc/self/task lists them.
std::size_t live_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(ParallelLinkRunner, LanesNeverExceedShards) {
  // Two shards can keep two lanes busy: the calling thread and one
  // worker. The other six threads asked for would never run a shard.
  // TSan starts a helper thread with the process's first thread, so one
  // throwaway thread runs first and `before` counts the helper.
  std::thread([] {}).join();
  const std::size_t before = live_threads();
  ParallelLinkRunner runner({.n_threads = 8, .n_shards = 2});
  EXPECT_EQ(runner.threads(), 2U);
  EXPECT_LE(live_threads(), before + 1);
  const core::SimConfig cfg = small_sim();
  EXPECT_EQ(runner.run(cfg).packets, cfg.n_packets);
}

TEST(ParallelLinkRunner, BisectionRoutesThroughThePool) {
  core::SimConfig cfg = small_sim(core::JammerSpec::Kind::none);
  cfg.n_packets = 6;
  ParallelLinkRunner runner({.n_threads = 4, .n_shards = 6});
  const double snr = runner.min_snr_for_per("pt", cfg, 0.5, -10.0, 45.0, 2.0);
  EXPECT_GE(snr, -10.0);
  EXPECT_LE(snr, 45.0);
  // Deterministic: the same bisection lands on the same answer.
  EXPECT_EQ(snr, runner.min_snr_for_per("pt", cfg, 0.5, -10.0, 45.0, 2.0));
}

}  // namespace
}  // namespace bhss::runtime
