// Tests for the distributed campaign layer (src/runtime/distributed):
// the mod shard partition, worker-sliced CampaignRunner journaling,
// journal-merge fold semantics — canonical ordering, byte-determinism
// against input order, benign-duplicate folding — and every adversarial
// rejection case (overlapping worker shards, conflicting duplicate
// payloads, params-hash and schema/figure/build mismatches, torn middle
// journals, unknown record kinds), the hardened journal write path
// (disk-full simulation producing a genuine torn tail, typed
// JournalWriteError, refuse-after-failure), heartbeat records surviving
// replay, and CampaignSupervisor process supervision with /bin/sh fake
// workers (crash respawn, exit-code taxonomy, restart-budget quarantine,
// hang detection via journal-growth stall).

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/link_simulator.hpp"
#include "runtime/campaign.hpp"
#include "runtime/checkpoint_journal.hpp"
#include "runtime/distributed/journal_merge.hpp"
#include "runtime/distributed/shard_partition.hpp"
#include "runtime/distributed/supervisor.hpp"
#include "runtime/journal_format.hpp"

namespace bhss::runtime::distributed {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "bhss_dist_" + name + "_" + std::to_string(::getpid());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

core::SimConfig small_sim() {
  core::SimConfig cfg;
  cfg.payload_len = 4;
  cfg.n_packets = 24;
  cfg.snr_db = 12.0;
  cfg.jnr_db = 20.0;
  cfg.jammer.kind = core::JammerSpec::Kind::fixed_bandwidth;
  cfg.jammer.bandwidth_frac = 0.1;
  return cfg;
}

core::LinkStats sample_stats(std::size_t salt) {
  core::LinkStats s;
  s.packets = 10 + salt;
  s.ok = 8;
  s.total_symbols = 4000 + salt;
  s.airtime_s = 0.1 * static_cast<double>(salt + 1) + 1e-17;
  return s;
}

/// Write a journal with the given figure/schema/sha and one S record per
/// (point, shard) pair, through the real CheckpointJournal append path.
void write_worker_journal(const std::string& path, const char* figure, int schema,
                          const char* sha,
                          const std::vector<std::pair<std::string, std::size_t>>& units,
                          std::uint64_t hash = 0xABCD, std::size_t stats_salt = 0) {
  std::remove(path.c_str());
  CheckpointJournal journal;
  journal.open(path, figure, schema, sha, false);
  for (const auto& [point, shard] : units) {
    journal.record_shard({point, hash}, shard, sample_stats(stats_salt + shard));
  }
}

// ------------------------------------------------------------ ShardPartition

TEST(ShardPartition, ModPartitionCoversEveryShardExactlyOnce) {
  const std::size_t n_shards = 37;
  for (const std::size_t n_workers : {1UL, 2UL, 3UL, 5UL, 16UL, 64UL}) {
    std::vector<std::size_t> owners(n_shards, 0);
    std::size_t total_owned = 0;
    for (std::size_t w = 0; w < n_workers; ++w) {
      const ShardPartition part{w, n_workers};
      part.validate();
      std::size_t owned = 0;
      for (std::size_t s = 0; s < n_shards; ++s) {
        if (part.owns(s)) {
          ++owners[s];
          ++owned;
        }
      }
      EXPECT_EQ(owned, part.owned_count(n_shards)) << "worker " << w << "/" << n_workers;
      total_owned += owned;
    }
    EXPECT_EQ(total_owned, n_shards);
    for (std::size_t s = 0; s < n_shards; ++s) EXPECT_EQ(owners[s], 1U) << "shard " << s;
  }
}

TEST(ShardPartition, DefaultOwnsEverythingAndInvalidIdentityIsRejected) {
  const ShardPartition solo;
  EXPECT_FALSE(solo.distributed());
  for (std::size_t s = 0; s < 100; ++s) EXPECT_TRUE(solo.owns(s));
  EXPECT_THROW((ShardPartition{3, 3}.validate()), std::exception);
  EXPECT_THROW((ShardPartition{0, 0}.validate()), std::exception);
}

// ------------------------------------------------- worker-sliced campaigns

TEST(DistributedCampaign, WorkerSlicesJournalDisjointShardsThatMergeToTheFullRun) {
  // Reference: a single-process campaign over the same config.
  const core::SimConfig cfg = small_sim();
  const std::string ref_path = temp_path("ref.journal");
  std::remove(ref_path.c_str());
  {
    CheckpointJournal journal;
    journal.open(ref_path, "dist", 1, "sha", false);
    CampaignRunner runner(CampaignOptions{.n_threads = 2, .n_shards = 8}, &journal);
    (void)runner.run_point("pt", cfg);
  }

  // Fleet of 3: each worker journals only its slice.
  std::vector<std::string> worker_paths;
  for (std::size_t w = 0; w < 3; ++w) {
    const std::string path = temp_path(("w" + std::to_string(w)).c_str());
    std::remove(path.c_str());
    worker_paths.push_back(path);
    CheckpointJournal journal;
    journal.open(path, "dist", 1, "sha", false);
    CampaignOptions options{.n_threads = 2, .n_shards = 8};
    options.partition = ShardPartition{w, 3};
    CampaignRunner runner(options, &journal);
    (void)runner.run_point("pt", cfg);
  }

  const std::string merged_path = temp_path("merged.journal");
  std::remove(merged_path.c_str());
  const MergeReport report = merge_journals(worker_paths, merged_path);
  EXPECT_EQ(report.inputs, 3U);
  EXPECT_EQ(report.shard_records, 8U);
  EXPECT_EQ(report.duplicates_folded, 0U);

  // The merged journal satisfies a resumed single-process run completely,
  // and the merged stats equal the reference bit for bit.
  CheckpointJournal ref;
  ref.open(ref_path, "dist", 1, "sha", true);
  CheckpointJournal merged;
  merged.open(merged_path, "dist", 1, "sha", true);
  const JournalKey key{"pt", CampaignRunner::params_hash(cfg, 8)};
  for (std::size_t shard = 0; shard < 8; ++shard) {
    const core::LinkStats* a = ref.find_shard(key, shard);
    const core::LinkStats* b = merged.find_shard(key, shard);
    ASSERT_NE(a, nullptr) << "shard " << shard;
    ASSERT_NE(b, nullptr) << "shard " << shard;
    EXPECT_EQ(a->packets, b->packets);
    EXPECT_EQ(a->ok, b->ok);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a->airtime_s),
              std::bit_cast<std::uint64_t>(b->airtime_s));
  }

  std::remove(ref_path.c_str());
  for (const std::string& p : worker_paths) std::remove(p.c_str());
  std::remove(merged_path.c_str());
}

TEST(DistributedCampaign, BisectionRefusesToRunOnAWorkerSlice) {
  CampaignOptions options{.n_threads = 1, .n_shards = 4};
  options.partition = ShardPartition{0, 2};
  CampaignRunner runner(options, nullptr);
  EXPECT_THROW((void)runner.min_snr_for_per("pt", small_sim()), std::exception);
}

// ------------------------------------------------------------ journal-merge

TEST(JournalMerge, CanonicalOutputIsIndependentOfInputOrder) {
  const std::string a = temp_path("order_a");
  const std::string b = temp_path("order_b");
  write_worker_journal(a, "dist", 1, "sha", {{"p1", 0}, {"p0", 2}});
  write_worker_journal(b, "dist", 1, "sha", {{"p0", 1}, {"p1", 3}});

  const std::string out_ab = temp_path("order_ab");
  const std::string out_ba = temp_path("order_ba");
  (void)merge_journals({a, b}, out_ab);
  (void)merge_journals({b, a}, out_ba);
  const std::string bytes = slurp(out_ab);
  EXPECT_EQ(bytes, slurp(out_ba));
  EXPECT_FALSE(bytes.empty());
  // Ascending (point, shard) order: p0/1, p0/2, p1/0, p1/3.
  EXPECT_LT(bytes.find("S p0 "), bytes.find("S p1 "));

  for (const std::string& p : {a, b, out_ab, out_ba}) std::remove(p.c_str());
}

TEST(JournalMerge, RejectsOverlappingShardOwnershipAcrossWorkers) {
  // Both workers journal (pt, shard 2) with IDENTICAL payloads: the merge
  // must still reject — disjointness is the partition contract, and two
  // owners mean the fleet was misconfigured even when results agree.
  const std::string a = temp_path("ovl_a");
  const std::string b = temp_path("ovl_b");
  write_worker_journal(a, "dist", 1, "sha", {{"pt", 0}, {"pt", 2}});
  write_worker_journal(b, "dist", 1, "sha", {{"pt", 1}, {"pt", 2}});
  const std::string out = temp_path("ovl_out");
  EXPECT_THROW((void)merge_journals({a, b}, out), JournalMergeError);
  EXPECT_EQ(slurp(out), "");  // nothing published on rejection
  for (const std::string& p : {a, b}) std::remove(p.c_str());
}

TEST(JournalMerge, RejectsDuplicateShardRecordsWithDifferingPayloads) {
  const std::string a = temp_path("dup_a");
  const std::string b = temp_path("dup_b");
  write_worker_journal(a, "dist", 1, "sha", {{"pt", 2}}, 0xABCD, /*stats_salt=*/0);
  write_worker_journal(b, "dist", 1, "sha", {{"pt", 2}}, 0xABCD, /*stats_salt=*/7);
  const std::string out = temp_path("dup_out");
  EXPECT_THROW((void)merge_journals({a, b}, out), JournalMergeError);
  for (const std::string& p : {a, b}) std::remove(p.c_str());
}

TEST(JournalMerge, RejectsParamsHashConflictForOnePointId) {
  const std::string a = temp_path("hash_a");
  const std::string b = temp_path("hash_b");
  write_worker_journal(a, "dist", 1, "sha", {{"pt", 0}}, /*hash=*/0x1111);
  write_worker_journal(b, "dist", 1, "sha", {{"pt", 1}}, /*hash=*/0x2222);
  const std::string out = temp_path("hash_out");
  EXPECT_THROW((void)merge_journals({a, b}, out), JournalMergeError);
  for (const std::string& p : {a, b}) std::remove(p.c_str());
}

TEST(JournalMerge, RejectsMismatchedSchemaFigureAndBuild) {
  const std::string ref = temp_path("hdr_ref");
  write_worker_journal(ref, "dist", 3, "sha1", {{"pt", 0}});
  const std::string out = temp_path("hdr_out");

  const std::string schema = temp_path("hdr_schema");
  write_worker_journal(schema, "dist", 4, "sha1", {{"pt", 1}});
  EXPECT_THROW((void)merge_journals({ref, schema}, out), JournalMergeError);

  const std::string figure = temp_path("hdr_figure");
  write_worker_journal(figure, "other", 3, "sha1", {{"pt", 1}});
  EXPECT_THROW((void)merge_journals({ref, figure}, out), JournalMergeError);

  const std::string build = temp_path("hdr_build");
  write_worker_journal(build, "dist", 3, "sha2", {{"pt", 1}});
  EXPECT_THROW((void)merge_journals({ref, build}, out), JournalMergeError);

  for (const std::string& p : {ref, schema, figure, build}) std::remove(p.c_str());
}

TEST(JournalMerge, RecoversTornTailInTheMiddleJournalOfThree) {
  const std::string a = temp_path("torn_a");
  const std::string b = temp_path("torn_b");
  const std::string c = temp_path("torn_c");
  write_worker_journal(a, "dist", 1, "sha", {{"pt", 0}});
  write_worker_journal(b, "dist", 1, "sha", {{"pt", 1}, {"pt", 4}});
  write_worker_journal(c, "dist", 1, "sha", {{"pt", 2}});

  // Tear b's tail mid-line: shard 1 stays durable, shard 4 is lost.
  std::string bytes = slurp(b);
  spit(b, bytes.substr(0, bytes.size() - 9));

  const std::string out = temp_path("torn_out");
  const MergeReport report = merge_journals({a, b, c}, out);
  EXPECT_EQ(report.torn_tails, 1U);
  EXPECT_EQ(report.shard_records, 3U);  // shards 0, 1, 2 — not 4
  const std::string merged = slurp(out);
  EXPECT_NE(merged.find(" 1 "), std::string::npos);
  EXPECT_EQ(merged.find("S pt 000000000000abcd 4 "), std::string::npos);

  for (const std::string& p : {a, b, c, out}) std::remove(p.c_str());
}

TEST(JournalMerge, EmptyWorkerJournalsContributeNothingButMergeCleanly) {
  const std::string a = temp_path("empty_a");
  const std::string b = temp_path("empty_b");  // header only: worker owned no work
  write_worker_journal(a, "dist", 1, "sha", {{"pt", 0}});
  write_worker_journal(b, "dist", 1, "sha", {});
  const std::string out = temp_path("empty_out");
  const MergeReport report = merge_journals({a, b}, out);
  EXPECT_EQ(report.inputs, 2U);
  EXPECT_EQ(report.shard_records, 1U);
  for (const std::string& p : {a, b, out}) std::remove(p.c_str());
}

TEST(JournalMerge, BaseJournalMayCoincideWithWorkerRecords) {
  // A worker deterministically recomputed a shard the supervisor already
  // holds: identical bytes fold; differing bytes still reject.
  const std::string base = temp_path("base");
  const std::string w = temp_path("base_w");
  write_worker_journal(base, "dist", 1, "sha", {{"pt", 0}, {"pt", 1}});
  write_worker_journal(w, "dist", 1, "sha", {{"pt", 1}, {"pt", 2}});
  const std::string out = temp_path("base_out");
  const MergeReport report = merge_journals({w}, out, base);
  EXPECT_EQ(report.inputs, 2U);
  EXPECT_EQ(report.shard_records, 3U);
  EXPECT_EQ(report.duplicates_folded, 1U);

  const std::string conflicting = temp_path("base_conflict");
  write_worker_journal(conflicting, "dist", 1, "sha", {{"pt", 1}}, 0xABCD,
                       /*stats_salt=*/9);
  EXPECT_THROW((void)merge_journals({conflicting}, out, base), JournalMergeError);

  for (const std::string& p : {base, w, out, conflicting}) std::remove(p.c_str());
}

TEST(JournalMerge, HeartbeatsAreDroppedAndForeignRecordKindsReject) {
  const std::string a = temp_path("hb");
  write_worker_journal(a, "dist", 1, "sha", {{"pt", 0}});
  {
    CheckpointJournal journal;
    journal.open(a, "dist", 1, "sha", true);
    journal.record_heartbeat(0, 1);
    journal.record_heartbeat(0, 2);
  }
  const std::string out = temp_path("hb_out");
  const MergeReport report = merge_journals({a}, out);
  EXPECT_EQ(report.heartbeats_dropped, 2U);
  EXPECT_EQ(slurp(out).find(" H "), std::string::npos);

  // A CRC-valid line of an unknown kind is a foreign/future journal, not
  // bit rot — reject loudly instead of silently dropping it.
  spit(a, slurp(a) + journal::seal_line("Z mystery record") + "\n");
  EXPECT_THROW((void)merge_journals({a}, out), JournalMergeError);

  for (const std::string& p : {a, out}) std::remove(p.c_str());
}

TEST(JournalMerge, MergedJournalResumesLikeASingleProcessJournal) {
  const std::string a = temp_path("resume_a");
  const std::string b = temp_path("resume_b");
  write_worker_journal(a, "dist", 1, "sha", {{"pt", 0}});
  write_worker_journal(b, "dist", 1, "sha", {{"pt", 1}});
  const std::string out = temp_path("resume_out");
  (void)merge_journals({a, b}, out);

  CheckpointJournal merged;
  merged.open(out, "dist", 1, "sha", true);
  EXPECT_EQ(merged.replayed_records(), 2U);
  EXPECT_FALSE(merged.tail_truncated());
  ASSERT_NE(merged.find_shard({"pt", 0xABCD}, 0), nullptr);
  ASSERT_NE(merged.find_shard({"pt", 0xABCD}, 1), nullptr);
  EXPECT_EQ(merged.find_shard({"pt", 0xABCD}, 2), nullptr);

  for (const std::string& p : {a, b, out}) std::remove(p.c_str());
}

// ------------------------------------------------- hardened journal appends

TEST(JournalWritePath, DiskFullFailsTypedAndLeavesAResumableTornTail) {
  const std::string path = temp_path("enospc");
  std::remove(path.c_str());
  CheckpointJournal journal;
  journal.open(path, "dist", 1, "sha", false);
  journal.record_shard({"pt", 1}, 0, sample_stats(0));

  // Budget covers half the next record: the append must throw and the
  // half-line must look exactly like a crash-torn tail on resume.
  journal.simulate_disk_full_after(20);
  EXPECT_THROW(journal.record_shard({"pt", 1}, 1, sample_stats(1)), JournalWriteError);
  // The journal refuses further appends after a write failure: records
  // after a hole would misrepresent campaign progress.
  EXPECT_THROW(journal.record_shard({"pt", 1}, 2, sample_stats(2)), JournalWriteError);
  journal.close();

  CheckpointJournal resumed;
  resumed.open(path, "dist", 1, "sha", true);
  EXPECT_TRUE(resumed.tail_truncated());
  EXPECT_EQ(resumed.replayed_records(), 1U);
  ASSERT_NE(resumed.find_shard({"pt", 1}, 0), nullptr);
  EXPECT_EQ(resumed.find_shard({"pt", 1}, 1), nullptr);
  std::remove(path.c_str());
}

TEST(JournalWritePath, HeartbeatsSurviveReplayWithoutTruncatingRecordsAfterThem) {
  const std::string path = temp_path("hb_replay");
  std::remove(path.c_str());
  {
    CheckpointJournal journal;
    journal.open(path, "dist", 1, "sha", false);
    journal.record_shard({"pt", 1}, 0, sample_stats(0));
    journal.record_heartbeat(3, 0);
    journal.record_shard({"pt", 1}, 1, sample_stats(1));  // after the heartbeat
  }
  CheckpointJournal resumed;
  resumed.open(path, "dist", 1, "sha", true);
  EXPECT_FALSE(resumed.tail_truncated());
  ASSERT_NE(resumed.find_shard({"pt", 1}, 1), nullptr);
  std::remove(path.c_str());
}

// --------------------------------------------------------- CampaignSupervisor

/// Fake-worker command builder: each incarnation runs a /bin/sh script.
/// The script appends to the worker journal path (so hang detection sees
/// growth) and exits as scripted.
WorkerCommand sh_worker(const std::string& base, const std::string& script) {
  return [base, script](std::size_t worker, bool resume) {
    const std::string journal = CampaignSupervisor::worker_journal_path(base, worker);
    return std::vector<std::string>{
        "/bin/sh", "-c",
        "W=" + std::to_string(worker) + "; R=" + (resume ? std::string("1") : "0") +
            "; J=" + journal + "; " + script};
  };
}

TEST(CampaignSupervisor, CleanFleetCompletesWithZeroTaxonomy) {
  const std::string base = temp_path("sup_clean");
  SupervisorOptions options;
  options.n_workers = 3;
  options.journal_base = base;
  options.poll_interval_s = 0.01;
  CampaignRunner::clear_interrupt();
  CampaignSupervisor supervisor(options, sh_worker(base, "echo done >> $J; exit 0"));
  const FleetResult result = supervisor.run();
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.drained);
  EXPECT_EQ(result.fleet.worker_restarts, 0U);
  EXPECT_EQ(result.fleet.worker_crashes, 0U);
  EXPECT_EQ(result.fleet.worker_drains, 0U);
  EXPECT_TRUE(result.failed_workers.empty());
  ASSERT_EQ(result.worker_journals.size(), 3U);
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(result.worker_journals[w], base + ".w" + std::to_string(w));
    std::remove(result.worker_journals[w].c_str());
    std::remove((result.worker_journals[w] + ".log").c_str());
  }
}

TEST(CampaignSupervisor, CrashedWorkerIsRespawnedWithResumeAndCounted) {
  const std::string base = temp_path("sup_crash");
  // First incarnation (R=0) crashes after journaling; the respawn (R=1)
  // succeeds. Exactly one crash, one restart, then completion.
  const std::string script = "echo step >> $J; if [ $R = 0 ]; then exit 9; fi; exit 0";
  SupervisorOptions options;
  options.n_workers = 2;
  options.journal_base = base;
  options.poll_interval_s = 0.01;
  options.backoff_base_s = 0.01;
  CampaignRunner::clear_interrupt();
  CampaignSupervisor supervisor(options, sh_worker(base, script));
  const FleetResult result = supervisor.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.fleet.worker_crashes, 2U);
  EXPECT_EQ(result.fleet.worker_restarts, 2U);
  EXPECT_TRUE(result.failed_workers.empty());
  for (const std::string& j : result.worker_journals) {
    std::remove(j.c_str());
    std::remove((j + ".log").c_str());
  }
}

TEST(CampaignSupervisor, RestartBudgetExhaustionQuarantinesTheWorker) {
  const std::string base = temp_path("sup_budget");
  SupervisorOptions options;
  options.n_workers = 2;
  options.journal_base = base;
  options.poll_interval_s = 0.01;
  options.backoff_base_s = 0.005;
  options.max_restarts = 2;
  CampaignRunner::clear_interrupt();
  // Worker 1 always crashes; worker 0 completes.
  const std::string script =
      "echo step >> $J; if [ $W = 1 ]; then exit 7; fi; exit 0";
  CampaignSupervisor supervisor(options, sh_worker(base, script));
  const FleetResult result = supervisor.run();
  EXPECT_FALSE(result.completed);
  EXPECT_FALSE(result.drained);
  ASSERT_EQ(result.failed_workers.size(), 1U);
  EXPECT_EQ(result.failed_workers[0], 1U);
  EXPECT_EQ(result.fleet.worker_restarts, 2U);   // budget, fully spent
  EXPECT_EQ(result.fleet.worker_crashes, 3U);    // initial + 2 respawns
  for (const std::string& j : result.worker_journals) {
    std::remove(j.c_str());
    std::remove((j + ".log").c_str());
  }
}

TEST(CampaignSupervisor, HungWorkerIsDetectedByJournalStallAndEscalated) {
  const std::string base = temp_path("sup_hang");
  SupervisorOptions options;
  options.n_workers = 1;
  options.journal_base = base;
  options.poll_interval_s = 0.01;
  options.backoff_base_s = 0.005;
  options.hang_timeout_s = 0.15;  // journal stops growing -> hung
  options.term_grace_s = 0.05;
  options.max_restarts = 1;
  CampaignRunner::clear_interrupt();
  // First incarnation writes once then sleeps forever ignoring SIGTERM
  // (so the TERM->KILL escalation is exercised); the respawn completes.
  const std::string script =
      "echo step >> $J; if [ $R = 0 ]; then trap '' TERM; sleep 60; fi; exit 0";
  CampaignSupervisor supervisor(options, sh_worker(base, script));
  const FleetResult result = supervisor.run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.fleet.worker_restarts, 1U);
  EXPECT_EQ(result.fleet.worker_crashes, 1U);  // SIGKILLed incarnation
  for (const std::string& j : result.worker_journals) {
    std::remove(j.c_str());
    std::remove((j + ".log").c_str());
  }
}

TEST(CampaignSupervisor, DrainRequestTermsTheFleetAndReportsDrains) {
  const std::string base = temp_path("sup_drain");
  SupervisorOptions options;
  options.n_workers = 2;
  options.journal_base = base;
  options.poll_interval_s = 0.01;
  options.term_grace_s = 30.0;  // never escalate to SIGKILL in this test
  CampaignRunner::clear_interrupt();
  // Workers drain on SIGTERM with the bench exit code (75), like a real
  // checkpointed campaign; without a drain they would run for a minute.
  // `sleep & wait` (not a foreground sleep) so the trap fires immediately
  // in shells that defer traps until the foreground command returns.
  const std::string script =
      "trap 'exit 75' TERM; echo step >> $J; sleep 60 & wait $!; exit 0";
  CampaignSupervisor supervisor(options, sh_worker(base, script));
  // Request the drain only once every worker has appended to its journal:
  // the append happens after the trap is installed, so the broadcast
  // SIGTERM can't land in the window before the shell set it up.
  std::thread trigger([&] {
    for (;;) {
      bool ready = true;
      for (std::size_t w = 0; w < options.n_workers; ++w) {
        ready = ready &&
                std::ifstream(CampaignSupervisor::worker_journal_path(base, w)).good();
      }
      if (ready) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    CampaignRunner::request_interrupt();
  });
  const FleetResult result = supervisor.run();
  trigger.join();
  CampaignRunner::clear_interrupt();
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.drained);
  EXPECT_EQ(result.fleet.worker_drains, 2U);
  EXPECT_EQ(result.fleet.worker_crashes, 0U);
  for (const std::string& j : result.worker_journals) {
    std::remove(j.c_str());
    std::remove((j + ".log").c_str());
  }
}

}  // namespace
}  // namespace bhss::runtime::distributed
