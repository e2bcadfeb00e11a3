#pragma once

/// @file bench_util.hpp
/// Shared helpers for the per-figure bench harnesses: command-line knobs,
/// table printing, wall-clock timing, machine-readable output and the
/// campaign checkpoint/resume plumbing, compiled once into `bhss_bench`
/// (bench_util.cpp). Every bench accepts
///   --packets=N        packets per data point (default: quick CI setting;
///                      the paper used 10 000)
///   --seed=N           channel seed
///   --jnr=dB           jammer-to-noise ratio
///   --threads=N        Monte-Carlo worker threads (default: hardware
///                      concurrency; determinism is per shard count, so
///                      this only changes wall time)
///   --shards=N         fixed Monte-Carlo shard count (part of the
///                      experiment identity — see ParallelLinkRunner)
///   --json=PATH        write one JSON object per data point to PATH
///                      (JSONL); wall-clock timings go to PATH.timing
///   --checkpoint=PATH  journal completed (data-point, shard) work units
///                      to PATH; SIGINT/SIGTERM drain gracefully and exit
///                      with status 75 (resumable)
///   --resume=PATH      replay the journal at PATH, re-run only missing
///                      units, keep checkpointing to the same file
///   --shard-timeout=S  per-shard watchdog budget in seconds (0 = off):
///                      overrunning shards are retried with backoff, then
///                      quarantined as `shard_timeout` in the taxonomy
///   --metrics=PATH     write per-point telemetry metrics (per-shard and
///                      merged counter/gauge/histogram records) to PATH
///                      (JSONL); merged stage timings go to PATH.timing
///   --trace=PATH       write per-hop trace events (hop decisions with the
///                      eq. (10) threshold terms, sync attempts/locks/
///                      losses, fault hits) to PATH (JSONL)
///
/// Worker slices (src/runtime/distributed; see EXPERIMENTS.md
/// "Distributed campaigns"):
///   --worker-id=I      run as worker I: simulate only the shards
///                      `shard % n_workers == I`, journal S/O records to
///                      the given --checkpoint path, publish nothing
///   --n-workers=N      number of workers the slice partitions against
///
/// Worker journals are folded with tools/journal_merge and published by
/// an ordinary --resume run over the merged journal.
///
/// An unknown flag, a malformed or negative count, a zero shard count, or
/// trailing junk after a number exits with status 2 and the usage line.
/// A path the bench cannot use (a journal it may not resume or create, an
/// output stream it cannot stage) exits with status 2 and says why.
///
/// Every JSONL record is stamped with `schema_version` and the build's
/// git SHA, so journals merged from different binaries are detectable.
/// The --metrics/--trace streams contain no wall-clock fields, so they
/// inherit the campaign's resume guarantee: a killed-and-resumed run
/// publishes byte-identical telemetry JSONL (shard telemetry is journaled
/// as `O` records and replayed bit-exactly).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/link_simulator.hpp"
#include "runtime/campaign.hpp"

namespace bhss::bench {

/// Version of the bench JSONL record layout. Bump when record fields
/// change meaning; consumers refuse to merge mixed-schema journals.
/// v3: checkpoint journals may carry telemetry (`O`) records, and the
/// --metrics/--trace JSONL streams exist.
/// v4: the canonical link schema gained the filter_cache_{hits,misses}
/// counters (excision design cache), so `O` records and --metrics lines
/// carry two more tokens/keys.
/// v5: closed-loop adaptation — `S` records grew six adapt_* taxonomy
/// fields (14 -> 20 tokens) and the link schema gained four adapt_*
/// counters, one adapt_state gauge and two trace event types.
/// v6: distributed fleets — `S` records grew the three worker_* taxonomy
/// fields (20 -> 23 tokens), journals may carry `H` heartbeat records,
/// and the journal write path fails hard (JournalWriteError) instead of
/// silently dropping appends.
/// v7: one LinkStats field table — `S` records drop the worker_* fields
/// (23 -> 20 tokens), and the link schema's counters that duplicated
/// LinkStats are replaced by the LinkStats projection under the field
/// names (delivered -> ok, sync_losses -> sync_lost, input_scrubbed ->
/// corrupt_input_rejected, fault_events -> faults_injected), registered
/// first, so `O` records and --metrics lines change counter order.
/// v8: one runner, no process supervisor — journal lines are sealed
/// with CRC-32 (journal format v2) and `H` heartbeat records are gone;
/// older journals are refused at open instead of half-replayed.
/// v9: `adapt_transition` trace events carry the packet that closed
/// their window (the `pkt` of the shard's preceding `adapt_window`
/// line) instead of 0, in --trace lines and in `O` records.
/// v10: journals hold only shard records (`S`, `O`, `Q`). The `P` record
/// of a published data point is gone: every published record is
/// recomputed on resume.
inline constexpr std::size_t kSchemaVersion = 10;

/// Exit status of a gracefully drained (SIGINT/SIGTERM) checkpointed
/// campaign: the run is incomplete but everything finished is journaled —
/// rerun with --resume to continue. 75 = BSD EX_TEMPFAIL.
inline constexpr int kExitResumable = 75;

/// Exit status of a malformed command line (unknown flag, bad number) or
/// of a path the bench cannot use.
inline constexpr int kExitUsage = 2;

/// Short git SHA baked in at configure time (bench/CMakeLists.txt);
/// "unknown" outside a git checkout.
[[nodiscard]] const char* build_git_sha() noexcept;

struct Options {
  std::size_t packets = 12;
  std::uint64_t seed = 7;
  double jnr_db = 30.0;
  std::size_t threads = 0;        ///< 0 = hardware concurrency
  std::size_t shards = 16;        ///< fixed shard count (experiment identity)
  std::string json_path;          ///< empty = JSON output disabled
  std::string checkpoint_path;    ///< empty = checkpointing disabled
  std::string resume_path;        ///< non-empty = resume this journal
  double shard_timeout_s = 0.0;   ///< watchdog budget per shard; 0 = off
  std::string metrics_path;       ///< empty = telemetry metrics disabled
  std::string trace_path;         ///< empty = trace events disabled
  bool worker = false;            ///< --worker-id given: run one worker slice
  std::size_t worker_id = 0;      ///< this worker's slot in [0, n_workers)
  std::size_t n_workers = 1;      ///< number of workers the partition divides by

  /// True when any telemetry stream was requested.
  [[nodiscard]] bool telemetry_enabled() const noexcept {
    return !metrics_path.empty() || !trace_path.empty();
  }

  /// Journal path in effect (resume wins over checkpoint).
  [[nodiscard]] const std::string& journal_path() const noexcept {
    return resume_path.empty() ? checkpoint_path : resume_path;
  }
};

/// Parse every `--flag=value` strictly: unknown arguments, numbers that
/// do not parse whole, negative counts, a zero shard count and non-finite
/// reals exit with kExitUsage. `--help` prints the usage line and exits 0.
[[nodiscard]] Options parse_options(int argc, char** argv, std::size_t default_packets = 12,
                                    double default_jnr_db = 30.0);

inline void header(const char* id, const char* what) { std::printf("# %s — %s\n", id, what); }

/// Wall-clock stopwatch for per-data-point timing.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// One flat JSON object, built key by key. Keys are plain identifiers;
/// doubles print as "%.10g", counts as "%zu", and string values get
/// minimal escaping (quote, backslash, control chars as \u00XX).
class JsonLine {
 public:
  JsonLine& add(const char* key, double value);
  JsonLine& add(const char* key, std::size_t value);
  JsonLine& add(const char* key, const char* value);

  /// Splice a pre-rendered `"key":value,...` fragment (the obs JSON body
  /// helpers) into the object verbatim. The fragment must be valid JSON
  /// object innards — this is the only way to carry arrays (histogram
  /// bins) in a JsonLine. An empty fragment adds nothing.
  JsonLine& fragment(const std::string& body);

  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonLine& raw(const char* key, const char* value);

  std::string body_;
};

/// Line-per-record JSON sink (JSONL). Disabled when the path is empty, so
/// benches can call `log.write(...)` unconditionally.
///
/// Records are written to `<path>.tmp` and renamed onto `<path>` when the
/// log is destroyed (normal bench completion). An aborted run therefore
/// leaves only the .tmp file behind (cleaned up at the next bench start):
/// the published path never holds a truncated half-written log that a
/// downstream consumer would misread as a complete sweep.
class JsonLog {
 public:
  JsonLog() = default;
  ~JsonLog();
  JsonLog(const JsonLog&) = delete;
  JsonLog& operator=(const JsonLog&) = delete;

  /// Stage records in `<path>.tmp`, deleting a stale one from an aborted
  /// run first. An empty path leaves the log disabled. Returns false when
  /// the staging file cannot be created (errno says why).
  [[nodiscard]] bool open(const std::string& path);

  [[nodiscard]] bool enabled() const noexcept { return file_ != nullptr; }

  /// Stamp provenance keys (`schema_version`, `git_sha`) and append the
  /// record.
  void write(JsonLine line);

  /// Append an already-final record verbatim (the unstamped `.timing`
  /// sidecar lines).
  void write_raw(const std::string& record);

  /// Close WITHOUT publishing: the staged .tmp stays on disk for the next
  /// run's stale-tmp cleanup. Used when a campaign drains mid-sweep — an
  /// incomplete JSONL must never land on the published path.
  void abandon();

  /// Close without publishing and delete the staged .tmp: the run was
  /// refused before it computed anything.
  void discard();

 private:
  std::string path_;
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
};

/// One checkpointable bench run: owns the JSONL sink, the timing sidecar,
/// the checkpoint journal and the campaign runner, and wires the
/// command-line Options through all of them.
///
/// One kind of data point is journaled: Monte-Carlo points go through
/// run_point()/min_snr_for_per(), which checkpoint at (point, shard)
/// granularity and merge bit-identically across kills and resumes.
/// Published records are never journaled: a resume recomputes each one,
/// a Monte-Carlo record from the journaled shards and a closed-form one
/// (Figs. 7-11, Table 1: milliseconds per figure) from the model itself.
///
/// Timings are deliberately kept OUT of the published JSONL (they go to
/// `<json>.timing`): every published field is a pure function of the
/// configuration, which is what makes "resumed output is bit-identical to
/// an uninterrupted run" a testable guarantee rather than a hope.
class Campaign {
 public:
  /// Stage the requested streams, then open the journal. A journal it may
  /// not use (another campaign's, another schema's, no valid header, an
  /// uncreatable path) or a stream it cannot stage prints why and exits
  /// kExitUsage before any point runs, leaving no file behind.
  Campaign(const Options& opt, const char* figure_id);

  [[nodiscard]] runtime::CampaignRunner& runner() noexcept { return *runner_; }
  [[nodiscard]] std::size_t threads() const noexcept { return runner_->threads(); }
  [[nodiscard]] std::size_t shards() const noexcept { return runner_->shards(); }

  /// Monte-Carlo data point (see CampaignRunner::run_point).
  [[nodiscard]] core::LinkStats run_point(const std::string& point_id,
                                          const core::SimConfig& cfg) {
    return runner_->run_point(point_id, cfg);
  }

  /// Checkpointed §6.3 bisection (see CampaignRunner::min_snr_for_per).
  /// A worker skips bisections entirely (returns 0): partial-shard PER
  /// would steer each worker down a different probe path, journaling
  /// unmergeable same-point records. The publish pass over the merged
  /// journal computes them in-process — worker slices parallelize the
  /// run_point sweeps, not the bisection probes.
  [[nodiscard]] double min_snr_for_per(const std::string& point_id,
                                       const core::SimConfig& cfg,
                                       double target_per = 0.5) {
    return worker_mode_ ? 0.0 : runner_->min_snr_for_per(point_id, cfg, target_per);
  }

  /// Publish one data-point record: stamp provenance, append it to the
  /// JSONL log and log the wall time to the timing sidecar. A worker has
  /// no stream open, so it publishes nothing: the canonical publish is
  /// the resumed pass over the merged journal.
  void emit(const std::string& point_id, JsonLine line, double wall_s);

  /// Graceful-drain completion: abandon the half-written logs (their .tmp
  /// stays for the next run's cleanup), flush the journal, tell the user
  /// how to resume, and return the distinct resumable status.
  int abandon_resumable();

 private:
  /// Print why the run cannot start, delete every staged stream and exit
  /// with kExitUsage.
  [[noreturn]] void refuse(const std::string& why);

  /// Telemetry emitter, invoked by the campaign runner after every
  /// point's merge (including points replayed wholly from the journal).
  /// Record order is deterministic: per-shard metrics in ascending shard
  /// order, then the merged metrics record; trace events in (point,
  /// shard, event) order with one drop-accounting record per shard that
  /// overflowed its ring. Stage timings are wall-clock and go to the
  /// `.timing` sidecar, never the published streams.
  void emit_telemetry(const std::string& point_id,
                      const std::vector<obs::ShardTelemetry>& shards);

  std::string figure_;
  bool worker_mode_ = false;
  runtime::CheckpointJournal journal_;
  std::optional<runtime::CampaignRunner> runner_;
  JsonLog log_;
  JsonLog timing_;
  JsonLog metrics_log_;
  JsonLog trace_log_;
  JsonLog obs_timing_;
};

}  // namespace bhss::bench
