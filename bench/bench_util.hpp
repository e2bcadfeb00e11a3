#pragma once

/// @file bench_util.hpp
/// Shared helpers for the per-figure bench harnesses: command-line knobs,
/// table printing, wall-clock timing, machine-readable output and the
/// campaign checkpoint/resume plumbing. Every bench accepts
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
///
/// Every JSONL record is stamped with `schema_version` and the build's
/// git SHA, so journals merged from different binaries are detectable.
/// The --metrics/--trace streams contain no wall-clock fields, so they
/// inherit the campaign's resume guarantee: a killed-and-resumed run
/// publishes byte-identical telemetry JSONL (shard telemetry is journaled
/// as `O` records and replayed bit-exactly).

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
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
inline constexpr std::size_t kSchemaVersion = 9;

/// Exit status of a gracefully drained (SIGINT/SIGTERM) checkpointed
/// campaign: the run is incomplete but everything finished is journaled —
/// rerun with --resume to continue. 75 = BSD EX_TEMPFAIL.
inline constexpr int kExitResumable = 75;

/// Exit status of a malformed command line (unknown flag, bad number).
inline constexpr int kExitUsage = 2;

/// Short git SHA baked in at configure time (bench/CMakeLists.txt);
/// "unknown" outside a git checkout.
inline const char* build_git_sha() {
#ifdef BHSS_GIT_SHA
  return BHSS_GIT_SHA;
#else
  return "unknown";
#endif
}

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

inline void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--packets=N] [--seed=N] [--jnr=dB] [--threads=N] [--shards=N]\n"
               "          [--json=PATH] [--checkpoint=PATH] [--resume=PATH]\n"
               "          [--shard-timeout=S] [--metrics=PATH] [--trace=PATH]\n"
               "          [--worker-id=I --n-workers=N]\n",
               argv0);
}

/// Parse every `--flag=value` strictly: unknown arguments, numbers that
/// do not parse whole, negative counts, a zero shard count and non-finite
/// reals exit with kExitUsage. `--help` prints the usage line and exits 0.
inline Options parse_options(int argc, char** argv, std::size_t default_packets = 12,
                             double default_jnr_db = 30.0) {
  Options opt;
  opt.packets = default_packets;
  opt.jnr_db = default_jnr_db;
  const char* argv0 = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view flag = arg.substr(0, eq == std::string_view::npos ? eq : eq + 1);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{} : arg.substr(eq + 1);
    const auto fail = [&](const char* why) {
      std::fprintf(stderr, "%s: %s: %s\n", argv0, argv[i], why);
      print_usage(stderr, argv0);
      std::exit(kExitUsage);
    };
    // Whole-token numbers: from_chars takes no sign on unsigned types and
    // no leading whitespace, and `end` must reach the end of the value.
    const auto count = [&](auto& out) {
      const char* last = value.data() + value.size();
      const auto [end, ec] = std::from_chars(value.data(), last, out);
      if (value.empty() || ec != std::errc{} || end != last) {
        fail("expected a non-negative integer");
      }
    };
    const auto real = [&](double& out, bool non_negative) {
      const char* last = value.data() + value.size();
      const auto [end, ec] = std::from_chars(value.data(), last, out);
      if (value.empty() || ec != std::errc{} || end != last || !std::isfinite(out) ||
          (non_negative && out < 0.0)) {
        fail(non_negative ? "expected a non-negative number" : "expected a finite number");
      }
    };

    if (flag == "--packets=") {
      count(opt.packets);
    } else if (flag == "--seed=") {
      count(opt.seed);
    } else if (flag == "--jnr=") {
      real(opt.jnr_db, false);
    } else if (flag == "--threads=") {
      count(opt.threads);
    } else if (flag == "--shards=") {
      count(opt.shards);
      if (opt.shards == 0) fail("expected a positive shard count");
    } else if (flag == "--json=") {
      opt.json_path = value;
    } else if (flag == "--checkpoint=") {
      opt.checkpoint_path = value;
    } else if (flag == "--resume=") {
      opt.resume_path = value;
    } else if (flag == "--shard-timeout=") {
      real(opt.shard_timeout_s, true);
    } else if (flag == "--metrics=") {
      opt.metrics_path = value;
    } else if (flag == "--trace=") {
      opt.trace_path = value;
    } else if (flag == "--worker-id=") {
      opt.worker = true;
      count(opt.worker_id);
    } else if (flag == "--n-workers=") {
      count(opt.n_workers);
    } else if (arg == "--help") {
      print_usage(stdout, argv0);
      std::exit(0);
    } else {
      fail("unknown argument");
    }
  }
  return opt;
}

inline void header(const char* id, const char* what) {
  std::printf("# %s — %s\n", id, what);
}

/// Wall-clock stopwatch for per-data-point timing.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void restart() { start_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// One flat JSON object, built key by key. Keys are plain identifiers;
/// string values get minimal escaping (quote, backslash, control chars).
class JsonLine {
 public:
  JsonLine& add(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    return raw(key, buf);
  }
  JsonLine& add(const char* key, std::size_t value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%zu", value);
    return raw(key, buf);
  }
  JsonLine& add(const char* key, const char* value) {
    std::string quoted = "\"";
    for (const char* p = value; *p != '\0'; ++p) {
      const char c = *p;
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char esc[8];
        std::snprintf(esc, sizeof(esc), "\\u%04x", static_cast<unsigned>(c));
        quoted += esc;
      } else {
        quoted += c;
      }
    }
    quoted += '"';
    return raw(key, quoted.c_str());
  }

  /// Splice a pre-rendered `"key":value,...` fragment (the obs JSON body
  /// helpers) into the object verbatim. The fragment must be valid JSON
  /// object innards — this is the only way to carry arrays (histogram
  /// bins) through the flat builder.
  JsonLine& fragment(const std::string& body) {
    if (body.empty()) return *this;
    if (!body_.empty()) body_ += ",";
    body_ += body;
    return *this;
  }

  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonLine& raw(const char* key, const char* value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += value;
    return *this;
  }

  std::string body_;
};

/// Append the schema/build provenance keys every published record carries.
inline JsonLine& stamp_record(JsonLine& line) {
  return line.add("schema_version", kSchemaVersion).add("git_sha", build_git_sha());
}

/// Delete a stale `<path>.tmp` left behind by a killed run (the staging
/// file of the atomic-rename publish below). Harmless when absent.
inline void remove_stale_tmp(const std::string& path) {
  if (path.empty()) return;
  const std::string tmp = path + ".tmp";
  if (std::remove(tmp.c_str()) == 0) {
    std::fprintf(stderr, "bench: removed stale %s from an aborted run\n", tmp.c_str());
  }
}

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
  explicit JsonLog(const std::string& path) { open(path); }
  ~JsonLog() { publish(); }
  JsonLog(const JsonLog&) = delete;
  JsonLog& operator=(const JsonLog&) = delete;

  void open(const std::string& path) {
    if (path.empty()) return;
    remove_stale_tmp(path);
    path_ = path;
    tmp_path_ = path + ".tmp";
    file_ = std::fopen(tmp_path_.c_str(), "w");
    if (file_ == nullptr) {
      std::fprintf(stderr, "bench: cannot open %s for writing\n", tmp_path_.c_str());
    }
  }

  [[nodiscard]] bool enabled() const noexcept { return file_ != nullptr; }

  /// Stamp provenance keys and append the record.
  void write(JsonLine line) {
    if (file_ == nullptr) return;
    write_raw(stamp_record(line).str());
  }

  /// Append an already-final record verbatim (journal replays: the bytes
  /// must match what the original run published).
  void write_raw(const std::string& record) {
    if (file_ == nullptr) return;
    std::fprintf(file_, "%s\n", record.c_str());
    std::fflush(file_);
  }

  /// Close WITHOUT publishing: the staged .tmp stays on disk for the next
  /// run's stale-tmp cleanup. Used when a campaign drains mid-sweep — an
  /// incomplete JSONL must never land on the published path.
  void abandon() {
    if (file_ == nullptr) return;
    std::fclose(file_);
    file_ = nullptr;
  }

 private:
  void publish() {
    if (file_ == nullptr) return;
    std::fclose(file_);
    file_ = nullptr;
    if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
      std::fprintf(stderr, "bench: cannot publish %s to %s\n", tmp_path_.c_str(),
                   path_.c_str());
    }
  }

  std::string path_;
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
};

/// Tiny FNV-1a fingerprint for analytic data points (model parameters,
/// loop indices) — the analytic benches' analogue of
/// CampaignRunner::params_hash. Floats hash as IEEE-754 bit patterns.
class ParamsHash {
 public:
  ParamsHash& add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  ParamsHash& add(double v) noexcept {
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return add(bits);
  }
  ParamsHash& add(const char* s) noexcept {
    for (; *s != '\0'; ++s) byte(static_cast<std::uint8_t>(*s));
    byte(0);
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void byte(std::uint8_t b) noexcept {
    hash_ ^= b;
    hash_ *= 0x100000001B3ULL;
  }
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// One checkpointable bench run: owns the JSONL sink, the timing sidecar,
/// the checkpoint journal and the campaign runner, and wires the
/// command-line Options through all of them.
///
/// Two kinds of data point:
///  - Monte-Carlo points go through run_point()/min_snr_for_per(), which
///    checkpoint at (point, shard) granularity and merge bit-identically
///    across kills and resumes.
///  - Analytic points (closed-form model evaluations) use
///    replay_point()/emit(): the published record itself is the journaled
///    unit, replayed byte-for-byte on resume.
///
/// Timings are deliberately kept OUT of the published JSONL (they go to
/// `<json>.timing`): every published field is a pure function of the
/// configuration, which is what makes "resumed output is bit-identical to
/// an uninterrupted run" a testable guarantee rather than a hope.
class Campaign {
 public:
  Campaign(const Options& opt, const char* figure_id)
      : figure_(figure_id), worker_mode_(opt.worker) {
    const std::string& journal_path = opt.journal_path();
    if (worker_mode_ &&
        (journal_path.empty() || opt.n_workers < 1 || opt.worker_id >= opt.n_workers)) {
      std::fprintf(stderr,
                   "%s: worker mode requires --checkpoint/--resume and "
                   "--worker-id < --n-workers\n",
                   figure_.c_str());
      std::exit(kExitUsage);
    }
    if (!journal_path.empty()) {
      remove_stale_tmp(journal_path);
      journal_.open(journal_path, figure_, static_cast<int>(kSchemaVersion), build_git_sha(),
                    /*resume=*/!opt.resume_path.empty());
      runtime::CampaignRunner::install_signal_handlers();
      if (journal_.replayed_records() > 0) {
        std::fprintf(stderr, "%s: resuming from %s (%zu journaled units%s)\n",
                     figure_.c_str(), journal_path.c_str(), journal_.replayed_records(),
                     journal_.tail_truncated() ? ", torn tail dropped" : "");
      }
    }
    runtime::distributed::ShardPartition partition;
    if (worker_mode_) partition = {opt.worker_id, opt.n_workers};
    runner_.emplace(
        runtime::CampaignOptions{.n_threads = opt.threads,
                                 .n_shards = opt.shards,
                                 .shard_timeout_s = opt.shard_timeout_s,
                                 .partition = partition},
        journal_.is_open() ? &journal_ : nullptr);

    if (worker_mode_) {
      // Workers never publish — they exist to journal S/O records for the
      // offline merge. Telemetry is ALWAYS collected (collect-only sink)
      // so every journaled shard carries its O record: the publish pass
      // can then honor --metrics/--trace without re-running shards.
      if (!opt.json_path.empty() || opt.telemetry_enabled()) {
        std::fprintf(stderr, "%s: worker %zu ignores --json/--metrics/--trace\n",
                     figure_.c_str(), opt.worker_id);
      }
      runner_->telemetry_sink = [](const std::string&, const core::SimConfig&,
                                   const core::LinkStats&,
                                   const std::vector<obs::ShardTelemetry>&) {};
      return;
    }

    log_.open(opt.json_path);
    if (!opt.json_path.empty()) timing_.open(opt.json_path + ".timing");

    if (opt.telemetry_enabled()) {
      metrics_log_.open(opt.metrics_path);
      trace_log_.open(opt.trace_path);
      if (!opt.metrics_path.empty()) obs_timing_.open(opt.metrics_path + ".timing");
      runner_->telemetry_sink = [this](const std::string& point_id,
                                       const core::SimConfig& /*cfg*/,
                                       const core::LinkStats& /*merged*/,
                                       const std::vector<obs::ShardTelemetry>& shards) {
        emit_telemetry(point_id, shards);
      };
    }
  }

  [[nodiscard]] runtime::CampaignRunner& runner() noexcept { return *runner_; }
  [[nodiscard]] std::size_t threads() const noexcept { return runner_->threads(); }
  [[nodiscard]] std::size_t shards() const noexcept { return runner_->shards(); }
  [[nodiscard]] bool json_enabled() const noexcept { return log_.enabled(); }

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
    if (worker_mode_) return 0.0;
    return runner_->min_snr_for_per(point_id, cfg, target_per);
  }

  /// Analytic point: when `point_id` is journaled under `params_hash`,
  /// republish the stored record verbatim and return true (caller skips
  /// the computation). Checks for a drain request at the point boundary.
  [[nodiscard]] bool replay_point(const std::string& point_id, std::uint64_t params_hash) {
    if (runtime::CampaignRunner::interrupt_requested()) {
      journal_.flush();
      throw runtime::CampaignInterrupted();
    }
    if (!journal_.is_open()) return false;
    if (const std::string* record = journal_.find_point({point_id, params_hash})) {
      log_.write_raw(*record);
      return true;
    }
    return false;
  }

  /// Publish one data-point record: stamp provenance, append to the
  /// JSONL log, journal it (so resume republishes these exact bytes) and
  /// log the wall time to the timing sidecar. A worker publishes nothing
  /// — not even `P` records: the canonical publish happens in the resumed
  /// pass over the merged journal, and a worker-written `P` would carry
  /// stats merged from a partial shard slice.
  void emit(const std::string& point_id, std::uint64_t params_hash, JsonLine line,
            double wall_s) {
    if (worker_mode_) return;
    const std::string record = stamp_record(line).str();
    log_.write_raw(record);
    if (journal_.is_open()) journal_.record_point({point_id, params_hash}, record);
    if (timing_.enabled()) {
      JsonLine timing;
      timing.add("point", point_id.c_str()).add("wall_s", wall_s);
      timing_.write_raw(timing.str());
    }
  }

  /// Normal completion: publishes the JSONL atomically (via destructors).
  int finish(int status = 0) { return status; }

  /// Graceful-drain completion: abandon the half-written logs (their .tmp
  /// stays for the next run's cleanup), flush the journal, tell the user
  /// how to resume, and return the distinct resumable status.
  int abandon_resumable() {
    log_.abandon();
    timing_.abandon();
    metrics_log_.abandon();
    trace_log_.abandon();
    obs_timing_.abandon();
    journal_.flush();
    std::fprintf(stderr, "%s: interrupted — journal flushed; rerun with --resume=%s\n",
                 figure_.c_str(), journal_.path().c_str());
    return kExitResumable;
  }

 private:
  /// Telemetry emitter, invoked by the campaign runner after every
  /// point's merge (including points replayed wholly from the journal).
  /// Record order is deterministic: per-shard metrics in ascending shard
  /// order, then the merged metrics record; trace events in (point,
  /// shard, event) order with one drop-accounting record per shard that
  /// overflowed its ring. Stage timings are wall-clock and go to the
  /// `.timing` sidecar, never the published streams.
  void emit_telemetry(const std::string& point_id,
                      const std::vector<obs::ShardTelemetry>& shards) {
    if (metrics_log_.enabled()) {
      for (std::size_t i = 0; i < shards.size(); ++i) {
        JsonLine line;
        line.add("point", point_id.c_str()).add("shard", i);
        line.fragment(obs::metrics_json_body(shards[i].metrics));
        metrics_log_.write(std::move(line));
      }
      const obs::ShardTelemetry merged = obs::merge_telemetry(shards, shards.size());
      JsonLine line;
      line.add("point", point_id.c_str()).add("shard", "merged");
      line.fragment(obs::metrics_json_body(merged.metrics));
      metrics_log_.write(std::move(line));
      if (obs_timing_.enabled()) {
        JsonLine timing;
        timing.add("point", point_id.c_str());
        timing.fragment(obs::scope_stats_json_body(merged.trace));
        obs_timing_.write_raw(timing.str());
      }
    }
    if (trace_log_.enabled()) {
      for (std::size_t i = 0; i < shards.size(); ++i) {
        const obs::TraceSink& sink = shards[i].trace;
        std::size_t seq = 0;
        for (const obs::TraceEvent& ev : sink.events()) {
          JsonLine line;
          line.add("point", point_id.c_str()).add("shard", i).add("seq", seq++);
          line.fragment(obs::trace_event_json_body(ev));
          trace_log_.write(std::move(line));
        }
        if (sink.dropped() > 0) {
          JsonLine line;
          line.add("point", point_id.c_str()).add("shard", i);
          line.add("event", "ring_overflow")
              .add("dropped", sink.dropped())
              .add("total_recorded", sink.total_recorded());
          trace_log_.write(std::move(line));
        }
      }
    }
  }

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
