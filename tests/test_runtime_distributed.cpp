// Tests for the distributed campaign layer (src/runtime/distributed):
// the mod shard partition, worker-sliced runner journaling, journal-merge
// fold semantics — canonical ordering, byte-determinism against input
// order, benign-duplicate folding — and every adversarial rejection case
// (overlapping worker shards, conflicting duplicate payloads, params-hash
// and schema/figure/build mismatches, torn middle journals, unknown
// record kinds, older journal formats), the hardened journal write path
// (disk-full simulation producing a genuine torn tail, typed
// JournalWriteError, refuse-after-failure), and a seeded mutation sweep
// proving journal load and merge reject or recover every corrupted file.

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/link_simulator.hpp"
#include "phy/crc16.hpp"
#include "runtime/campaign.hpp"
#include "runtime/checkpoint_journal.hpp"
#include "runtime/distributed/journal_merge.hpp"
#include "runtime/distributed/shard_partition.hpp"
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
    for (std::size_t w = 0; w < n_workers; ++w) {
      const ShardPartition part{w, n_workers};
      part.validate();
      for (std::size_t s = 0; s < n_shards; ++s) {
        if (part.owns(s)) ++owners[s];
      }
    }
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

  // The message names each journal with its own build.
  const std::string build = temp_path("hdr_build");
  write_worker_journal(build, "dist", 3, "sha2", {{"pt", 1}});
  try {
    (void)merge_journals({ref, build}, out);
    ADD_FAILURE() << "build mismatch was merged";
  } catch (const JournalMergeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(build + " was written by git=sha2"), std::string::npos) << what;
    EXPECT_NE(what.find(ref + " by git=sha1"), std::string::npos) << what;
  }

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

TEST(JournalMerge, ForeignRecordKindsReject) {
  // A CRC-valid line of an unknown kind is a foreign/future journal, not
  // bit rot — reject loudly instead of silently dropping it. `H` (the
  // worker heartbeat of schema v6/v7) and `P` (the published record of
  // schema v9 and older) are two of them now.
  const std::string a = temp_path("foreign");
  write_worker_journal(a, "dist", 1, "sha", {{"pt", 0}});
  const std::string clean = slurp(a);
  const std::string out = temp_path("foreign_out");
  for (const char* body : {"Z mystery record", "H 0 1", "P pt 000000000000abcd {\"per\":0.25}"}) {
    spit(a, clean + journal::seal_line(body) + "\n");
    try {
      (void)merge_journals({a}, out);
      ADD_FAILURE() << "merged a journal holding '" << body << "'";
    } catch (const JournalMergeError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown record kind"), std::string::npos) << e.what();
    }
  }
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

// ------------------------------------------------- older journal formats

/// A line as journal format v1 (schema v7 and earlier) sealed it: the
/// CRC-16/CCITT of the body in four hex digits.
std::string seal_v1(const std::string& body) {
  const std::uint16_t crc = phy::crc16_ccitt(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(body.data()), body.size()));
  char tail[16];
  std::snprintf(tail, sizeof(tail), " crc=%04X", static_cast<unsigned>(crc));
  return body + tail + "\n";
}

TEST(JournalFormat, V7JournalIsRefusedByResumeAndMerge) {
  // A schema v7 worker journal, byte for byte as that build wrote it.
  const std::string path = temp_path("v7");
  const std::string v7 =
      seal_v1("bhss-journal v1 schema=7 figure=dist git=sha") +
      seal_v1("S pt 000000000000abcd 0 " + journal::format_stats(sample_stats(0))) +
      seal_v1("H 0 1");
  spit(path, v7);

  CheckpointJournal journal;
  try {
    journal.open(path, "dist", 7, "sha", true);
    ADD_FAILURE() << "a v7 journal was resumed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("journal format v1"), std::string::npos) << e.what();
  }
  EXPECT_FALSE(journal.is_open());
  EXPECT_EQ(slurp(path), v7);  // refused up front, nothing truncated

  const std::string out = temp_path("v7_out");
  EXPECT_THROW((void)merge_journals({path}, out), JournalMergeError);
  EXPECT_EQ(slurp(out), "");
  std::remove(path.c_str());
}

// ---------------------------------------------------------- mutation sweep

/// Every lookup a resumed journal answers about the mutation fixture, one
/// token each, "-" where the lookup finds nothing.
std::vector<std::string> lookups(const CheckpointJournal& journal, const JournalKey& key) {
  std::vector<std::string> out;
  for (std::size_t shard = 0; shard < 4; ++shard) {
    const core::LinkStats* stats = journal.find_shard(key, shard);
    out.push_back(stats != nullptr ? journal::format_stats(*stats) : "-");
    const std::string* blob = journal.find_shard_obs(key, shard);
    out.push_back(blob != nullptr ? *blob : "-");
    out.push_back(journal.shard_quarantined(key, shard) ? "Q" : "-");
  }
  return out;
}

TEST(JournalMutation, EveryMutationIsRejectedOrRecovered) {
  // One journal holding every record kind: O+S for shard 0, S for shard
  // 1 and Q for shard 2.
  const JournalKey key{"pt", 0xABCD};
  const std::string src = temp_path("mut_src");
  std::remove(src.c_str());
  {
    CheckpointJournal journal;
    journal.open(src, "dist", 1, "sha", false);
    const std::string blob = "c 3 7 h 2 1 0";
    journal.record_shard(key, 0, sample_stats(0), &blob);
    journal.record_shard(key, 1, sample_stats(1));
    journal.record_quarantine(key, 2, 3);
  }
  const std::string original = slurp(src);
  std::vector<std::size_t> starts{0};  // each line's offset, then the file size
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (original[i] == '\n') starts.push_back(i + 1);
  }
  const std::size_t n_lines = starts.size() - 1;
  ASSERT_EQ(n_lines, 5U);
  const std::size_t n_records = n_lines - 1;

  std::vector<std::string> expected;
  {
    CheckpointJournal journal;
    journal.open(src, "dist", 1, "sha", true);
    ASSERT_EQ(journal.replayed_records(), n_records);
    expected = lookups(journal, key);
  }
  const std::string canonical_path = temp_path("mut_canonical");
  (void)merge_journals({src}, canonical_path);
  const std::string canonical = slurp(canonical_path);

  struct Mutant {
    std::string bytes;
    bool cut = false;  ///< truncated inside a line
  };
  std::vector<Mutant> mutants;
  std::mt19937_64 rng(0x5EED);  // the engine's output is fixed by the standard
  const auto flipped = [&](std::size_t bits) {
    std::string bytes = original;
    for (std::size_t b = 0; b < bits; ++b) {
      const std::size_t bit = rng() % (bytes.size() * 8);
      bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    }
    return bytes;
  };
  for (int i = 0; i < 150; ++i) mutants.push_back({flipped(1)});
  for (int i = 0; i < 150; ++i) mutants.push_back({flipped(2 + rng() % 7)});
  // Cuts inside the last two lines. A cut on a line boundary is not
  // corruption: it is the shorter journal a kill between two appends
  // leaves, and it resumes as exactly that.
  for (std::size_t cut = starts[n_lines - 2] + 1; cut < original.size(); ++cut) {
    if (cut != starts[n_lines - 1]) mutants.push_back({original.substr(0, cut), true});
  }
  for (std::size_t l = 0; l < n_lines; ++l) {
    const std::string line = original.substr(starts[l], starts[l + 1] - starts[l]);
    const std::string before = original.substr(0, starts[l]);
    mutants.push_back({before + line + original.substr(starts[l])});  // duplicated
    if (l + 1 < n_lines) {
      const std::string next = original.substr(starts[l + 1], starts[l + 2] - starts[l + 1]);
      mutants.push_back({before + next + line + original.substr(starts[l + 2])});  // swapped
    }
  }

  const std::string path = temp_path("mut");
  const std::string out = temp_path("mut_out");
  std::size_t rejected = 0;
  std::size_t recovered = 0;
  for (std::size_t m = 0; m < mutants.size(); ++m) {
    SCOPED_TRACE("mutant " + std::to_string(m));
    spit(path, mutants[m].bytes);

    // Resume: throws, or truncates to a prefix that replays fewer
    // records, or replays exactly the original lookups. A wrong value is
    // never an option.
    bool opened = false;
    {
      CheckpointJournal journal;
      try {
        journal.open(path, "dist", 1, "sha", true);
        opened = true;
      } catch (const std::runtime_error&) {
        ++rejected;
      }
      if (opened) {
        const std::vector<std::string> got = lookups(journal, key);
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(got[i] == expected[i] || got[i] == "-") << "lookup " << i;
        }
        if (got == expected) {
          ++recovered;
        } else {
          ++rejected;
          EXPECT_TRUE(journal.tail_truncated());
          EXPECT_LT(journal.replayed_records(), n_records);
        }
        // Appends after a truncating resume start on a line boundary.
        if (mutants[m].cut) journal.record_shard({"fresh", 1}, 0, sample_stats(9));
      }
    }
    if (opened && mutants[m].cut) {
      CheckpointJournal again;
      again.open(path, "dist", 1, "sha", true);
      EXPECT_FALSE(again.tail_truncated());
      EXPECT_NE(again.find_shard({"fresh", 1}, 0), nullptr);
    }

    // Merge: throws, or reports the torn tail and keeps a subset of the
    // canonical records, or reproduces the canonical journal.
    spit(path, mutants[m].bytes);
    try {
      const MergeReport report = merge_journals({path}, out);
      const std::string merged = slurp(out);
      if (merged != canonical) {
        EXPECT_EQ(report.torn_tails, 1U);
        std::istringstream lines(merged);
        for (std::string line; std::getline(lines, line);) {
          EXPECT_NE(canonical.find(line + "\n"), std::string::npos) << line;
        }
      }
    } catch (const JournalMergeError&) {
    }
  }
  EXPECT_GT(rejected, 0U);
  EXPECT_GT(recovered, 0U);
  for (const std::string& p : {src, canonical_path, path, out}) std::remove(p.c_str());
}

}  // namespace
}  // namespace bhss::runtime::distributed
