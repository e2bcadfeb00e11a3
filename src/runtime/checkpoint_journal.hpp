#pragma once

/// @file checkpoint_journal.hpp
/// Crash-safe progress journal for long Monte-Carlo campaigns.
///
/// Reproducing a paper figure at full scale (10k packets per data point,
/// dozens of (SNR, jammer-bandwidth, hop-pattern) sweeps) runs for hours;
/// a crash, OOM-kill or Ctrl-C must not lose the finished work. The
/// journal records every completed (data-point, shard) work unit of a
/// campaign as one CRC-protected line in an append-only file:
///
///   bhss-journal v2 schema=<n> figure=<id> git=<sha> crc=XXXXXXXX
///   S <point> <params-hash> <shard> <LinkStats fields...> crc=XXXXXXXX
///   O <point> <params-hash> <shard> <telemetry blob...> crc=XXXXXXXX
///
/// `S` journals the bit-exact statistics of one finished simulation shard
/// (doubles stored as IEEE-754 bit patterns, so replay merges to the same
/// bits), and `O` the shard's serialized telemetry when the campaign
/// records it (written immediately before its `S` line, so a journaled
/// shard with no blob can only mean telemetry was off). The journal holds
/// only what a shard computes: published records are recomputed from it
/// on resume, never stored. The bench schema_version and the header's
/// format version are bumped alongside format changes so mixed-format
/// resumes are rejected up front.
///
/// Refusal policy: a resume reads the file through `journal::scan`, the
/// same scan `journal-merge` uses. A line that unseals and ends in a
/// newline is what a writer wrote, so one this build cannot read (an
/// unknown kind such as the `Q` quarantine line of older builds, or `S`
/// stats that do not parse) makes `open` throw, naming the record, and
/// leaves the file as it was. Only a torn tail is truncated.
///
/// Durability contract:
///  - The file is *created* by writing the header to `<path>.tmp`,
///    fsync'ing, and atomically renaming onto `<path>` — a crash during
///    creation never leaves a half-written journal at the published path.
///  - Every appended record is flushed and fsync'd before the append call
///    returns: once a work unit is reported done, it survives SIGKILL.
///  - A torn tail (the crash landed mid-write) is detected by the per-line
///    CRC-32 on load, or by a last line missing its newline; the valid
///    prefix is kept and the file is truncated back to it before
///    appending resumes.
///
/// Keys are `(point id, params hash)`: a record whose params hash does not
/// match the current configuration is ignored on lookup, so editing a
/// sweep's parameters safely invalidates stale work instead of reusing it.

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "core/link_simulator.hpp"

namespace bhss::runtime {

/// A journal append could not be made durable (ENOSPC, EFBIG, short
/// write, fsync failure). The record is NOT on disk — or is a torn half-line the next
/// resume's CRC scan will truncate — so the caller must not account the
/// work unit as checkpointed. The journal refuses further appends after
/// the first write failure: interleaving records after a hole would leave
/// a journal whose valid prefix lies about campaign progress.
class JournalWriteError : public std::runtime_error {
 public:
  explicit JournalWriteError(const std::string& what);
};

/// Identity of one data point inside a campaign. `point_id` must be a
/// valid token of the journal's line format (journal::valid_point_id:
/// non-empty, whitespace-free, at most journal::kMaxPointIdLength bytes);
/// `params_hash` fingerprints every simulation parameter that can change
/// the result (see ParallelLinkRunner::params_hash).
struct JournalKey {
  std::string point_id;
  std::uint64_t params_hash = 0;
};

/// Append-only, CRC-protected campaign checkpoint file. All appends are
/// thread-safe (worker shards report completion concurrently) and fsync'd.
class CheckpointJournal {
 public:
  CheckpointJournal() = default;
  ~CheckpointJournal();
  CheckpointJournal(const CheckpointJournal&) = delete;
  CheckpointJournal& operator=(const CheckpointJournal&) = delete;

  /// Open `path` for a campaign identified by `figure_id`.
  /// With `resume` set, an existing journal is loaded (records replayed
  /// into the lookup maps, torn tail truncated) — the header's figure id
  /// must match, and every sealed line must be a record this build reads.
  /// Without `resume`, any existing file at `path` is replaced.
  /// `schema_version`/`build_sha` are stamped into the header of a fresh
  /// journal so merged journals from different binaries are detectable.
  /// Throws std::runtime_error on I/O failure, header mismatch or a
  /// sealed line it cannot read.
  void open(const std::string& path, const std::string& figure_id, int schema_version,
            const std::string& build_sha, bool resume);

  [[nodiscard]] bool is_open() const noexcept { return file_ != nullptr; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Number of valid records loaded by a resume open.
  [[nodiscard]] std::size_t replayed_records() const noexcept { return replayed_; }
  /// True when the resume load found (and truncated) a torn tail.
  [[nodiscard]] bool tail_truncated() const noexcept { return tail_truncated_; }

  // -- lookups (journal state loaded at open + records appended since) --

  /// Stats of a completed shard, or nullptr when the unit is not journaled
  /// (or was journaled under a different params hash).
  [[nodiscard]] const core::LinkStats* find_shard(const JournalKey& key,
                                                  std::size_t shard) const;

  /// Serialized telemetry of a completed shard (`O` record), or nullptr
  /// when the shard ran without telemetry (or is not journaled).
  [[nodiscard]] const std::string* find_shard_obs(const JournalKey& key,
                                                  std::size_t shard) const;

  // -- appends (thread-safe, fsync'd before return) --

  /// BHSS_REQUIREs a valid `key.point_id` (see JournalKey): a record the
  /// reader could not parse back would make the journal unresumable.
  ///
  /// `obs_blob` (optional) is the shard's serialized telemetry
  /// (obs::serialize_telemetry); when present its `O` line is written
  /// *before* the `S` line under one lock, so a crash between the two
  /// leaves a shard that will simply be re-run on resume.
  void record_shard(const JournalKey& key, std::size_t shard, const core::LinkStats& stats,
                    const std::string* obs_blob = nullptr);

  /// Flush + fsync any buffered bytes (appends already fsync; this is for
  /// the graceful-shutdown drain path to be explicit).
  void flush();

  /// Close the journal file (lookup maps stay usable).
  void close();

 private:
  void append_line(const std::string& body);
  void load_existing(const std::string& figure_id, int schema_version);

  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::string path_;
  std::size_t replayed_ = 0;
  bool tail_truncated_ = false;
  bool write_failed_ = false;

  // Keyed by "<point> <hash-hex> <shard>".
  std::unordered_map<std::string, core::LinkStats> shards_;
  std::unordered_map<std::string, std::string> shard_obs_;
};

}  // namespace bhss::runtime
