// Tests for the campaign orchestration layer: CheckpointJournal
// round-trips (bit-exact stats, CRC-32 sealing and rejection, torn-tail
// truncation, header validation, point-id length), CampaignRunner kill-and-resume determinism at 1 and
// 8 threads, the per-shard watchdog (retry then quarantine), the graceful
// drain protocol, merge_link_stats degenerate inputs, the journal's strict
// stats parser under hostile tokens, and per-field coverage of the
// LinkStats field table (journal round trip, merge, equality).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/link_simulator.hpp"
#include "link_stats_testing.hpp"
#include "obs/link_obs.hpp"
#include "runtime/campaign.hpp"
#include "runtime/checkpoint_journal.hpp"
#include "runtime/journal_format.hpp"
#include "runtime/parallel_link_runner.hpp"

namespace bhss::runtime {
namespace {

// ------------------------------------------------------------------ helpers

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "bhss_campaign_" + name + "_" +
         std::to_string(::getpid()) + ".journal";
}

core::SimConfig small_sim() {
  core::SimConfig cfg;
  cfg.payload_len = 4;
  cfg.n_packets = 12;
  cfg.snr_db = 12.0;
  cfg.jnr_db = 20.0;
  cfg.jammer.kind = core::JammerSpec::Kind::fixed_bandwidth;
  cfg.jammer.bandwidth_frac = 0.1;
  return cfg;
}

// Bitwise, not approximate: the whole point of the journal's bit-pattern
// encoding is that resume reproduces the uninterrupted run exactly.
using testutil::expect_identical;
using testutil::salted_stats;

/// Keep the first `lines` lines of `path` (simulates a crash that landed
/// between appends).
void truncate_to_lines(const std::string& path, std::size_t lines) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string kept;
  std::string line;
  for (std::size_t i = 0; i < lines && std::getline(in, line); ++i) kept += line + "\n";
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << kept;
}

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::size_t n = 0;
  std::string line;
  while (std::getline(in, line)) ++n;
  return n;
}

// --------------------------------------------------------- CheckpointJournal

TEST(CheckpointJournal, ShardStatsRoundTripBitExact) {
  const std::string path = temp_path("roundtrip");
  std::remove(path.c_str());
  const JournalKey key{"pt0", 0xDEADBEEFCAFE1234ULL};
  {
    CheckpointJournal journal;
    journal.open(path, "unit", 2, "abc123", /*resume=*/false);
    for (std::size_t shard = 0; shard < 4; ++shard) {
      journal.record_shard(key, shard, salted_stats(shard));
    }
    // Lookups work immediately, before any close/reopen.
    ASSERT_NE(journal.find_shard(key, 2), nullptr);
  }
  CheckpointJournal resumed;
  resumed.open(path, "unit", 2, "abc123", /*resume=*/true);
  EXPECT_EQ(resumed.replayed_records(), 4U);
  EXPECT_FALSE(resumed.tail_truncated());
  for (std::size_t shard = 0; shard < 4; ++shard) {
    const core::LinkStats* got = resumed.find_shard(key, shard);
    ASSERT_NE(got, nullptr) << "shard " << shard;
    expect_identical(*got, salted_stats(shard));
  }
  EXPECT_EQ(resumed.find_shard(key, 4), nullptr);
  std::remove(path.c_str());
}

TEST(CheckpointJournal, ParamsHashMismatchIsNotFound) {
  const std::string path = temp_path("hashmismatch");
  std::remove(path.c_str());
  CheckpointJournal journal;
  journal.open(path, "unit", 2, "abc123", false);
  journal.record_shard({"pt0", 1}, 0, salted_stats(0));
  EXPECT_NE(journal.find_shard({"pt0", 1}, 0), nullptr);
  EXPECT_EQ(journal.find_shard({"pt0", 2}, 0), nullptr);  // stale params
  EXPECT_EQ(journal.find_shard({"pt1", 1}, 0), nullptr);  // other point
  std::remove(path.c_str());
}

TEST(CheckpointJournal, QuarantineRoundTrip) {
  const std::string path = temp_path("quarantine");
  std::remove(path.c_str());
  const JournalKey key{"pt0", 42};
  {
    CheckpointJournal journal;
    journal.open(path, "unit", 2, "abc123", false);
    journal.record_quarantine(key, 3, 2);
  }
  CheckpointJournal resumed;
  resumed.open(path, "unit", 2, "abc123", true);
  EXPECT_EQ(resumed.replayed_records(), 1U);
  EXPECT_TRUE(resumed.shard_quarantined(key, 3));
  EXPECT_FALSE(resumed.shard_quarantined(key, 2));
  std::remove(path.c_str());
}

TEST(CheckpointJournal, TornTailIsTruncatedAndAppendable) {
  const std::string path = temp_path("torntail");
  std::remove(path.c_str());
  const JournalKey key{"pt0", 7};
  {
    CheckpointJournal journal;
    journal.open(path, "unit", 2, "abc123", false);
    journal.record_shard(key, 0, salted_stats(0));
    journal.record_shard(key, 1, salted_stats(1));
  }
  {  // simulate a crash mid-append: half a record, no newline
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "S pt0 00000000000000";
  }
  {
    CheckpointJournal resumed;
    resumed.open(path, "unit", 2, "abc123", true);
    EXPECT_TRUE(resumed.tail_truncated());
    EXPECT_EQ(resumed.replayed_records(), 2U);
    resumed.record_shard(key, 2, salted_stats(2));  // append onto the clean boundary
  }
  CheckpointJournal again;
  again.open(path, "unit", 2, "abc123", true);
  EXPECT_FALSE(again.tail_truncated());
  EXPECT_EQ(again.replayed_records(), 3U);
  ASSERT_NE(again.find_shard(key, 2), nullptr);
  expect_identical(*again.find_shard(key, 2), salted_stats(2));
  std::remove(path.c_str());
}

TEST(CheckpointJournal, CorruptedRecordDropsTheSuffix) {
  const std::string path = temp_path("corrupt");
  std::remove(path.c_str());
  const JournalKey key{"pt0", 7};
  {
    CheckpointJournal journal;
    journal.open(path, "unit", 2, "abc123", false);
    for (std::size_t shard = 0; shard < 4; ++shard) {
      journal.record_shard(key, shard, salted_stats(shard));
    }
  }
  {  // flip one byte inside the third record (header + 2 full records kept)
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    std::string line;
    std::getline(f, line);  // header
    std::getline(f, line);  // shard 0
    std::getline(f, line);  // shard 1
    const auto pos = f.tellg();
    f.seekp(pos + std::streamoff{8});
    f.put('#');
  }
  CheckpointJournal resumed;
  resumed.open(path, "unit", 2, "abc123", true);
  EXPECT_TRUE(resumed.tail_truncated());
  EXPECT_EQ(resumed.replayed_records(), 2U);
  EXPECT_NE(resumed.find_shard(key, 1), nullptr);
  EXPECT_EQ(resumed.find_shard(key, 2), nullptr);  // corrupted away
  EXPECT_EQ(resumed.find_shard(key, 3), nullptr);  // after the corruption
  std::remove(path.c_str());
}

/// `text` with its space-separated token `index` replaced by `token`.
std::string with_token(const std::string& text, std::size_t index, const std::string& token) {
  std::size_t begin = 0;
  for (std::size_t i = 0; i < index; ++i) begin = text.find(' ', begin) + 1;
  const std::size_t end = std::min(text.find(' ', begin), text.size());
  return text.substr(0, begin) + token + text.substr(end);
}

TEST(JournalFormat, ParseStatsRejectsHostileTokens) {
  const std::string good = journal::format_stats(salted_stats(3));
  const auto rejected = [](const std::string& text) {
    core::LinkStats out = salted_stats(9);
    return !journal::parse_stats(text.c_str(), out) && out == salted_stats(9);  // untouched
  };
  core::LinkStats parsed;
  ASSERT_TRUE(journal::parse_stats(good.c_str(), parsed));
  std::size_t airtime_row = 0;
  while (std::string_view(core::kLinkStatsFields[airtime_row].name) != "airtime_s") {
    ++airtime_row;
  }

  EXPECT_TRUE(rejected(with_token(good, 0, "-1")));                    // negative count
  EXPECT_TRUE(rejected(with_token(good, 0, "+1")));                    // explicit sign
  EXPECT_TRUE(rejected(good + " 7"));                                  // trailing token
  EXPECT_TRUE(rejected(good + " "));                                   // trailing separator
  EXPECT_TRUE(rejected(good.substr(0, good.rfind(' '))));              // one token short
  EXPECT_TRUE(rejected(with_token(good, 0, "18446744073709551616")));  // 2^64 overflows
  EXPECT_TRUE(rejected(with_token(good, 0, "12x")));                   // partial token
  EXPECT_TRUE(rejected(with_token(good, airtime_row, "3fb999999999999z")));  // not hex
  EXPECT_TRUE(rejected(with_token(good, airtime_row, "3fb99999999999")));    // too short
  EXPECT_TRUE(rejected(with_token(good, airtime_row, "0x3fb99999999999")));  // prefixed
  EXPECT_TRUE(rejected(""));
  // 2^64 - 1 is the largest count and still parses.
  EXPECT_FALSE(rejected(with_token(good, 0, "18446744073709551615")));
}

TEST(JournalFormat, LinesAreSealedWithCrc32) {
  EXPECT_EQ(journal::line_crc("123456789"), 0xCBF43926U);  // CRC-32/IEEE check value
  EXPECT_EQ(journal::seal_line("123456789"), "123456789 crc=CBF43926");
  std::string body;
  EXPECT_TRUE(journal::unseal_line("123456789 crc=CBF43926", body));
  EXPECT_EQ(body, "123456789");
  EXPECT_FALSE(journal::unseal_line("123456789 crc=CBF43927", body));  // wrong CRC
  EXPECT_FALSE(journal::unseal_line("12345678 crc=CBF43926", body));   // wrong body
  EXPECT_FALSE(journal::unseal_line("123456789 crc=+BF43926", body));  // not hex
  EXPECT_FALSE(journal::unseal_line("123456789 crc=29B1", body));      // a v1 tail
}

TEST(CheckpointJournal, LongPointIdsAreRejectedAtTheWriter) {
  const std::string path = temp_path("longid");
  std::remove(path.c_str());
  const std::string longest(journal::kMaxPointIdLength, 'a');
  const std::string too_long(journal::kMaxPointIdLength + 9, 'a');
  {
    CheckpointJournal journal;
    journal.open(path, "unit", 2, "abc123", false);
    journal.record_shard({"before", 1}, 0, salted_stats(0));
    EXPECT_THROW(journal.record_shard({too_long, 1}, 0, salted_stats(1)), std::exception);
    EXPECT_THROW(journal.record_quarantine({too_long, 1}, 0, 2), std::exception);
    journal.record_shard({longest, 1}, 0, salted_stats(2));
    journal.record_shard({"after", 1}, 0, salted_stats(3));
  }
  // The longest accepted id reads back whole, and so does the record
  // after it: nothing is truncated.
  CheckpointJournal resumed;
  resumed.open(path, "unit", 2, "abc123", true);
  EXPECT_EQ(resumed.replayed_records(), 3U);
  EXPECT_FALSE(resumed.tail_truncated());
  EXPECT_NE(resumed.find_shard({longest, 1}, 0), nullptr);
  EXPECT_NE(resumed.find_shard({"after", 1}, 0), nullptr);

  CampaignRunner runner({.n_threads = 1, .n_shards = 2});
  EXPECT_THROW((void)runner.run_point(too_long, small_sim()), std::exception);
  std::remove(path.c_str());
}

TEST(LinkStatsFields, EveryFieldRoundTripsMergesAndCompares) {
  const core::LinkStats a = salted_stats(1);
  const core::LinkStats b = salted_stats(2);
  core::LinkStats parsed;
  ASSERT_TRUE(journal::parse_stats(journal::format_stats(a).c_str(), parsed));
  constexpr std::size_t kPayload = 6;
  const core::LinkStats merged = core::merge_link_stats({a, b}, kPayload);

  for (const core::LinkStatsField& f : core::kLinkStatsFields) {
    SCOPED_TRACE(f.name);
    EXPECT_EQ(f.bits(parsed), f.bits(a));  // journal round trip, bit for bit
    core::LinkStats changed = a;
    f.set_bits(changed, f.bits(a) ^ 1U);   // this field alone
    EXPECT_FALSE(changed == a);
    if (f.derived) continue;
    if (f.count != nullptr) {
      EXPECT_EQ(merged.*f.count, a.*f.count + b.*f.count);
    } else {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(merged.*f.real),
                std::bit_cast<std::uint64_t>(a.*f.real + b.*f.real));
    }
  }
  EXPECT_TRUE(parsed == a);
  EXPECT_EQ(merged.throughput_bps,
            static_cast<double>(merged.ok * kPayload * 8) / merged.airtime_s);
}

TEST(CheckpointJournal, HeaderMismatchesAreHardErrors) {
  const std::string path = temp_path("header");
  std::remove(path.c_str());
  {
    CheckpointJournal journal;
    journal.open(path, "figA", 2, "abc123", false);
  }
  {
    CheckpointJournal j;
    EXPECT_THROW(j.open(path, "figB", 2, "abc123", true), std::runtime_error);
  }
  {
    CheckpointJournal j;
    EXPECT_THROW(j.open(path, "figA", 3, "abc123", true), std::runtime_error);
  }
  {  // matching identity resumes fine
    CheckpointJournal j;
    j.open(path, "figA", 2, "different-sha-is-ok", true);
    EXPECT_TRUE(j.is_open());
  }
  std::remove(path.c_str());
}

TEST(CheckpointJournal, ResumeOfMissingFileStartsFresh) {
  const std::string path = temp_path("missing");
  std::remove(path.c_str());
  CheckpointJournal journal;
  journal.open(path, "unit", 2, "abc123", /*resume=*/true);
  EXPECT_TRUE(journal.is_open());
  EXPECT_EQ(journal.replayed_records(), 0U);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ params hash

TEST(CampaignRunner, ParamsHashCoversConfigAndShardCount) {
  const core::SimConfig cfg = small_sim();
  const std::uint64_t base = CampaignRunner::params_hash(cfg, 8);
  EXPECT_EQ(base, CampaignRunner::params_hash(cfg, 8));  // pure function

  EXPECT_NE(base, CampaignRunner::params_hash(cfg, 9));  // shards are identity
  core::SimConfig changed = cfg;
  changed.snr_db += 0.5;
  EXPECT_NE(base, CampaignRunner::params_hash(changed, 8));
  changed = cfg;
  changed.jammer.kind = core::JammerSpec::Kind::reactive;
  EXPECT_NE(base, CampaignRunner::params_hash(changed, 8));
  changed = cfg;
  changed.faults.p_drop += 0.01;
  EXPECT_NE(base, CampaignRunner::params_hash(changed, 8));
  changed = cfg;
  changed.system.symbols_per_hop += 1;
  EXPECT_NE(base, CampaignRunner::params_hash(changed, 8));
}

// --------------------------------------------------------- campaign running

TEST(CampaignRunner, MatchesParallelLinkRunnerWithoutJournal) {
  const core::SimConfig cfg = small_sim();
  ParallelLinkRunner plain({.n_threads = 2, .n_shards = 8});
  CampaignRunner campaign({.n_threads = 2, .n_shards = 8});
  expect_identical(plain.run(cfg), campaign.run_point("pt", cfg));
}

TEST(CampaignRunner, KillAndResumeIsBitIdenticalAtOneAndEightThreads) {
  const core::SimConfig cfg = small_sim();
  const std::string path = temp_path("killresume");
  std::remove(path.c_str());

  // Uninterrupted reference, no journal.
  CampaignRunner reference({.n_threads = 2, .n_shards = 8});
  const core::LinkStats expected = reference.run_point("pt", cfg);

  // Checkpointed run, then simulate a SIGKILL that lost the tail of the
  // journal: keep header + 3 shard records.
  {
    CheckpointJournal journal;
    journal.open(path, "unit", 2, "abc123", false);
    CampaignRunner runner({.n_threads = 8, .n_shards = 8}, &journal);
    expect_identical(runner.run_point("pt", cfg), expected);
  }
  ASSERT_EQ(count_lines(path), 9U);  // header + 8 shards
  truncate_to_lines(path, 4);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const std::string copy = path + "." + std::to_string(threads);
    {
      std::ifstream src(path, std::ios::binary);
      std::ofstream dst(copy, std::ios::binary);
      dst << src.rdbuf();
    }
    CheckpointJournal journal;
    journal.open(copy, "unit", 2, "abc123", true);
    EXPECT_EQ(journal.replayed_records(), 3U);

    // Count how many shards actually re-run: resume must skip the 3
    // journaled units and execute exactly the missing 5.
    CampaignRunner resumed({.n_threads = threads, .n_shards = 8}, &journal);
    std::atomic<std::size_t> executed{0};
    resumed.shard_hook = [&](std::size_t, std::size_t) { ++executed; };
    expect_identical(resumed.run_point("pt", cfg), expected);
    EXPECT_EQ(executed.load(), 5U) << threads << " threads";

    // A second resume replays everything and executes nothing.
    CheckpointJournal full;
    full.open(copy, "unit", 2, "abc123", true);
    EXPECT_EQ(full.replayed_records(), 8U);
    CampaignRunner replay({.n_threads = threads, .n_shards = 8}, &full);
    executed = 0;
    replay.shard_hook = [&](std::size_t, std::size_t) { ++executed; };
    expect_identical(replay.run_point("pt", cfg), expected);
    EXPECT_EQ(executed.load(), 0U);
    std::remove(copy.c_str());
  }
  std::remove(path.c_str());
}

/// Flatten a telemetry_sink invocation into one comparable string:
/// per-shard serialized bundles in shard order, then the merged bundle.
/// Byte equality of this snapshot is exactly what the --metrics/--trace
/// JSONL byte-identity guarantee rests on.
std::string telemetry_snapshot(const std::vector<obs::ShardTelemetry>& shards) {
  std::string snap;
  for (const obs::ShardTelemetry& t : shards) snap += obs::serialize_telemetry(t) + "\n";
  snap += obs::serialize_telemetry(obs::merge_telemetry(shards, shards.size())) + "\n";
  return snap;
}

TEST(CampaignRunner, TelemetryResumeIsBitIdentical) {
  const core::SimConfig cfg = small_sim();
  const std::string path = temp_path("telemetry_resume");
  std::remove(path.c_str());

  // Uninterrupted 1-thread reference with telemetry, journal fresh.
  std::string expected_snapshot;
  core::LinkStats expected;
  {
    CheckpointJournal journal;
    journal.open(path, "unit", 2, "abc123", false);
    CampaignRunner runner({.n_threads = 1, .n_shards = 4}, &journal);
    runner.telemetry_sink = [&](const std::string&, const core::SimConfig&,
                                const core::LinkStats&,
                                const std::vector<obs::ShardTelemetry>& shards) {
      expected_snapshot = telemetry_snapshot(shards);
    };
    expected = runner.run_point("pt", cfg);
  }
  ASSERT_FALSE(expected_snapshot.empty());
  // Each shard journals an O (telemetry) line followed by its S line.
  ASSERT_EQ(count_lines(path), 9U);  // header + 4 x (O, S)

  // Simulate a SIGKILL that landed between the O and S appends of shard 1:
  // keep header, shard 0's pair, and shard 1's orphan O record. Resume at 8
  // threads must replay shard 0, re-run shards 1-3, and reproduce both the
  // stats and every telemetry byte.
  truncate_to_lines(path, 4);
  {
    CheckpointJournal journal;
    journal.open(path, "unit", 2, "abc123", true);
    // 3 records replay: shard 0's O+S pair and shard 1's orphan O. The
    // orphan carries telemetry but no stats, so shard 1 still re-runs.
    EXPECT_EQ(journal.replayed_records(), 3U);
    CampaignRunner resumed({.n_threads = 8, .n_shards = 4}, &journal);
    std::string snapshot;
    resumed.telemetry_sink = [&](const std::string&, const core::SimConfig&,
                                 const core::LinkStats&,
                                 const std::vector<obs::ShardTelemetry>& shards) {
      snapshot = telemetry_snapshot(shards);
    };
    std::atomic<std::size_t> executed{0};
    resumed.shard_hook = [&](std::size_t, std::size_t) { ++executed; };
    expect_identical(resumed.run_point("pt", cfg), expected);
    EXPECT_EQ(executed.load(), 3U);
    EXPECT_EQ(snapshot, expected_snapshot);
  }

  // Fully-journaled resume: zero shards execute, the sink still fires, and
  // every byte comes back out of the journal's O records unchanged.
  {
    CheckpointJournal journal;
    journal.open(path, "unit", 2, "abc123", true);
    // 3 surviving records plus the resumed run's 3 re-journaled O+S pairs.
    EXPECT_EQ(journal.replayed_records(), 9U);
    CampaignRunner replay({.n_threads = 2, .n_shards = 4}, &journal);
    std::string snapshot;
    replay.telemetry_sink = [&](const std::string&, const core::SimConfig&,
                                const core::LinkStats&,
                                const std::vector<obs::ShardTelemetry>& shards) {
      snapshot = telemetry_snapshot(shards);
    };
    std::atomic<std::size_t> executed{0};
    replay.shard_hook = [&](std::size_t, std::size_t) { ++executed; };
    expect_identical(replay.run_point("pt", cfg), expected);
    EXPECT_EQ(executed.load(), 0U);
    EXPECT_EQ(snapshot, expected_snapshot);
  }
  std::remove(path.c_str());
}

TEST(CampaignRunner, BlobLessJournalRerunsShardsForTelemetry) {
  const core::SimConfig cfg = small_sim();
  const std::string path = temp_path("telemetry_bloblless");
  std::remove(path.c_str());

  // A pre-telemetry campaign: no sink, so the journal carries only S
  // records (this is exactly what a v2-era journal upgraded in place looks
  // like after the schema bump).
  core::LinkStats expected;
  {
    CheckpointJournal journal;
    journal.open(path, "unit", 2, "abc123", false);
    CampaignRunner runner({.n_threads = 1, .n_shards = 4}, &journal);
    expected = runner.run_point("pt", cfg);
  }
  ASSERT_EQ(count_lines(path), 5U);  // header + 4 x S, no O records

  // Resuming with a telemetry sink must re-run every shard (stats alone
  // cannot reconstruct telemetry) yet still produce bit-identical stats.
  CheckpointJournal journal;
  journal.open(path, "unit", 2, "abc123", true);
  EXPECT_EQ(journal.replayed_records(), 4U);
  CampaignRunner resumed({.n_threads = 1, .n_shards = 4}, &journal);
  std::string snapshot;
  resumed.telemetry_sink = [&](const std::string&, const core::SimConfig&,
                               const core::LinkStats&,
                               const std::vector<obs::ShardTelemetry>& shards) {
    snapshot = telemetry_snapshot(shards);
  };
  std::atomic<std::size_t> executed{0};
  resumed.shard_hook = [&](std::size_t, std::size_t) { ++executed; };
  expect_identical(resumed.run_point("pt", cfg), expected);
  EXPECT_EQ(executed.load(), 4U);
  EXPECT_FALSE(snapshot.empty());

  // And the re-run leaves the journal fully populated: a third pass with a
  // sink replays telemetry from the O records without executing anything.
  CheckpointJournal full;
  full.open(path, "unit", 2, "abc123", true);
  CampaignRunner replay({.n_threads = 1, .n_shards = 4}, &full);
  std::string replayed;
  replay.telemetry_sink = [&](const std::string&, const core::SimConfig&,
                              const core::LinkStats&,
                              const std::vector<obs::ShardTelemetry>& shards) {
    replayed = telemetry_snapshot(shards);
  };
  executed = 0;
  replay.shard_hook = [&](std::size_t, std::size_t) { ++executed; };
  expect_identical(replay.run_point("pt", cfg), expected);
  EXPECT_EQ(executed.load(), 0U);
  EXPECT_EQ(replayed, snapshot);
  std::remove(path.c_str());
}

TEST(CampaignRunner, BisectionResumesThroughTheJournal) {
  core::SimConfig cfg = small_sim();
  cfg.jammer.kind = core::JammerSpec::Kind::none;
  cfg.n_packets = 6;
  const std::string path = temp_path("bisect");
  std::remove(path.c_str());

  CampaignRunner reference({.n_threads = 4, .n_shards = 6});
  const double expected = reference.min_snr_for_per("pt", cfg, 0.5, -10.0, 45.0, 2.0);

  {
    CheckpointJournal journal;
    journal.open(path, "unit", 2, "abc123", false);
    CampaignRunner runner({.n_threads = 4, .n_shards = 6}, &journal);
    EXPECT_EQ(runner.min_snr_for_per("pt", cfg, 0.5, -10.0, 45.0, 2.0), expected);
  }
  const std::size_t full_lines = count_lines(path);
  ASSERT_GT(full_lines, 4U);
  truncate_to_lines(path, full_lines / 2);

  CheckpointJournal journal;
  journal.open(path, "unit", 2, "abc123", true);
  CampaignRunner resumed({.n_threads = 1, .n_shards = 6}, &journal);
  std::atomic<std::size_t> executed{0};
  resumed.shard_hook = [&](std::size_t, std::size_t) { ++executed; };
  EXPECT_EQ(resumed.min_snr_for_per("pt", cfg, 0.5, -10.0, 45.0, 2.0), expected);
  // The resumed bisection walks the same SNR path but reuses the journaled
  // prefix, so it executes strictly fewer shards than a full run.
  EXPECT_LT(executed.load(), (full_lines - 1));
  std::remove(path.c_str());
}

// ------------------------------------------------------------- watchdog

namespace {

/// Block until the test raises `release` — a hang whose duration adapts
/// to however slow the build is, unlike a fixed sleep. Safe to capture
/// test locals: the test joins abandoned threads before they go out of
/// scope.
void hang_until(const std::atomic<bool>& release) {
  while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(25));
}

/// Watchdog budget that adapts to however slow this build is. A fixed
/// budget tuned on an optimised build times out *genuine* shards under
/// -O0 + coverage instrumentation on a loaded single-core runner, turning
/// the test into a flake; scale it from a measured uninstrumented-watchdog
/// reference run of the same workload instead.
double scaled_budget(double reference_seconds) {
  return std::max(6.0, 4.0 * reference_seconds);
}

double timed_run(CampaignRunner& runner, const core::SimConfig& cfg,
                 core::LinkStats* out = nullptr) {
  const auto t0 = std::chrono::steady_clock::now();
  const core::LinkStats stats = runner.run_point("pt", cfg);
  if (out != nullptr) *out = stats;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

TEST(CampaignRunner, WatchdogRetriesAHungShard) {
  core::SimConfig cfg = small_sim();
  cfg.n_packets = 4;  // one packet per shard: far inside the budget everywhere
  CampaignRunner reference({.n_threads = 2, .n_shards = 4});
  core::LinkStats expected;
  const double ref_s = timed_run(reference, cfg, &expected);

  CampaignOptions opts;
  opts.n_threads = 2;
  opts.n_shards = 4;
  opts.shard_timeout_s = scaled_budget(ref_s);
  opts.max_attempts = 3;
  opts.backoff_base_s = 0.01;
  CampaignRunner runner(opts);
  // Shard 2 hangs past the watchdog budget on its first attempt only; the
  // deterministic retry recomputes the identical statistics.
  std::atomic<bool> release{false};
  runner.shard_hook = [&release](std::size_t shard, std::size_t attempt) {
    if (shard == 2 && attempt == 0) hang_until(release);
  };
  const core::LinkStats merged = runner.run_point("pt", cfg);
  EXPECT_EQ(merged.shard_retried, 1U);
  EXPECT_EQ(merged.shard_timeout, 0U);
  EXPECT_EQ(merged.packets, expected.packets);
  EXPECT_EQ(merged.ok, expected.ok);
  EXPECT_EQ(merged.symbol_errors, expected.symbol_errors);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(merged.airtime_s),
            std::bit_cast<std::uint64_t>(expected.airtime_s));
  // The abandoned first-attempt thread keeps running in the registry;
  // release it and wait it out before its captures go out of scope.
  release = true;
  CampaignRunner::join_abandoned_threads();
}

TEST(CampaignRunner, WatchdogQuarantinesAPermanentlyHungShard) {
  core::SimConfig cfg = small_sim();
  cfg.n_packets = 4;  // one packet per shard: far inside the budget everywhere
  const std::string path = temp_path("quarantine");
  std::remove(path.c_str());

  CampaignRunner reference({.n_threads = 4, .n_shards = 4});
  const double ref_s = timed_run(reference, cfg);

  CampaignOptions opts;
  opts.n_threads = 4;
  opts.n_shards = 4;
  opts.shard_timeout_s = scaled_budget(ref_s);
  opts.max_attempts = 2;
  opts.backoff_base_s = 0.01;

  std::atomic<bool> release{false};
  core::LinkStats merged;
  {
    CheckpointJournal journal;
    journal.open(path, "unit", 2, "abc123", false);
    CampaignRunner runner(opts, &journal);
    runner.shard_hook = [&release](std::size_t shard, std::size_t) {
      if (shard == 1) hang_until(release);
    };
    merged = runner.run_point("pt", cfg);
    EXPECT_EQ(merged.shard_timeout, 1U);
    EXPECT_EQ(merged.shard_retried, 0U);
    // The quarantined shard's packets are missing from the merge.
    const auto range = ParallelLinkRunner::shard_range(cfg.n_packets, 4, 1);
    EXPECT_EQ(merged.packets, cfg.n_packets - range.count);
  }
  // Both hung attempts are parked in the registry; release them before
  // their captures (and the journal's temp file) go away.
  release = true;
  CampaignRunner::join_abandoned_threads();

  // Resume: the quarantine is journaled, so the shard is accounted as
  // shard_timeout without being re-run (and without re-hanging).
  CheckpointJournal journal;
  journal.open(path, "unit", 2, "abc123", true);
  EXPECT_TRUE(journal.shard_quarantined(
      {"pt", CampaignRunner::params_hash(cfg, 4)}, 1));
  CampaignRunner resumed(opts, &journal);
  std::atomic<std::size_t> executed{0};
  resumed.shard_hook = [&](std::size_t, std::size_t) { ++executed; };
  expect_identical(resumed.run_point("pt", cfg), merged);
  EXPECT_EQ(executed.load(), 0U);
  std::remove(path.c_str());
}

// -------------------------------------------------------------- drain

TEST(CampaignRunner, InterruptDrainsAndResumeCompletes) {
  const core::SimConfig cfg = small_sim();
  const std::string path = temp_path("drain");
  std::remove(path.c_str());

  CampaignRunner reference({.n_threads = 2, .n_shards = 8});
  const core::LinkStats expected = reference.run_point("pt", cfg);

  CampaignRunner::clear_interrupt();
  {
    CheckpointJournal journal;
    journal.open(path, "unit", 2, "abc123", false);
    CampaignRunner runner({.n_threads = 1, .n_shards = 8}, &journal);
    std::atomic<std::size_t> started{0};
    runner.shard_hook = [&](std::size_t, std::size_t) {
      if (++started == 3) CampaignRunner::request_interrupt();
    };
    EXPECT_THROW((void)runner.run_point("pt", cfg), CampaignInterrupted);
    EXPECT_TRUE(CampaignRunner::interrupt_requested());
  }
  // In-flight shards drained into the journal; the rest were skipped.
  const std::size_t journaled = count_lines(path) - 1;
  EXPECT_GE(journaled, 3U);
  EXPECT_LT(journaled, 8U);

  // While the drain request stands, nothing new starts.
  {
    CheckpointJournal journal;
    journal.open(path, "unit", 2, "abc123", true);
    CampaignRunner runner({.n_threads = 1, .n_shards = 8}, &journal);
    EXPECT_THROW((void)runner.run_point("pt", cfg), CampaignInterrupted);
  }

  CampaignRunner::clear_interrupt();
  CheckpointJournal journal;
  journal.open(path, "unit", 2, "abc123", true);
  CampaignRunner resumed({.n_threads = 2, .n_shards = 8}, &journal);
  expect_identical(resumed.run_point("pt", cfg), expected);
  std::remove(path.c_str());
}

// ------------------------------------------------- merge_link_stats edges

TEST(MergeLinkStats, ZeroPacketShardsContributeNothing) {
  std::vector<core::LinkStats> parts = {salted_stats(0), core::LinkStats{}, salted_stats(1),
                                        core::LinkStats{}, core::LinkStats{}};
  const core::LinkStats with_empty = core::merge_link_stats(parts, 6);
  const std::vector<core::LinkStats> dense = {salted_stats(0), salted_stats(1)};
  expect_identical(with_empty, core::merge_link_stats(dense, 6));
}

TEST(MergeLinkStats, AllShardsEmptyIsAValidMerge) {
  const std::vector<core::LinkStats> parts(7);
  const core::LinkStats merged = core::merge_link_stats(parts, 6);
  EXPECT_EQ(merged.packets, 0U);
  EXPECT_EQ(merged.total_symbols, 0U);
  // Rates on an empty campaign must not divide by zero.
  EXPECT_GE(merged.per(), 0.0);
  EXPECT_GE(merged.ser(), 0.0);
}

TEST(MergeLinkStats, ShardOrderPreservesCountsAndTaxonomy) {
  // The journal hands shards back by index, but a resumed vector can hold
  // records produced in any order across runs. Counting fields are exact
  // sums, so every permutation must agree on them.
  std::vector<core::LinkStats> parts = {salted_stats(3), salted_stats(1), salted_stats(4),
                                        salted_stats(2)};
  const core::LinkStats a = core::merge_link_stats(parts, 6);
  std::reverse(parts.begin(), parts.end());
  const core::LinkStats b = core::merge_link_stats(parts, 6);
  for (const core::LinkStatsField& f : core::kLinkStatsFields) {
    if (f.count != nullptr) {
      EXPECT_EQ(a.*f.count, b.*f.count) << f.name;
    }
  }
}

TEST(MergeLinkStats, TaxonomySurvivesAJournalRoundTrip) {
  const std::string path = temp_path("taxonomy");
  std::remove(path.c_str());
  const JournalKey key{"pt", 99};
  core::LinkStats weird = salted_stats(5);
  weird.shard_timeout = 2;
  weird.shard_retried = 3;
  {
    CheckpointJournal journal;
    journal.open(path, "unit", 2, "abc123", false);
    journal.record_shard(key, 0, weird);
    journal.record_shard(key, 1, salted_stats(1));
  }
  CheckpointJournal resumed;
  resumed.open(path, "unit", 2, "abc123", true);
  std::vector<core::LinkStats> parts = {*resumed.find_shard(key, 0),
                                        *resumed.find_shard(key, 1)};
  const core::LinkStats merged = core::merge_link_stats(parts, 6);
  EXPECT_EQ(merged.shard_timeout, weird.shard_timeout + salted_stats(1).shard_timeout);
  EXPECT_EQ(merged.shard_retried, weird.shard_retried + salted_stats(1).shard_retried);
  EXPECT_EQ(merged.faults_injected,
            weird.faults_injected + salted_stats(1).faults_injected);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bhss::runtime
