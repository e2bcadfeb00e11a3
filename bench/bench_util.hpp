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
/// Distributed campaigns (src/runtime/distributed):
///   --supervise=N      fork/exec N worker incarnations of this binary
///                      (one per fleet slot), merge their journals and
///                      finish with a normal in-process publish pass.
///                      Requires --checkpoint/--resume. The published
///                      JSONL/metrics/trace bytes are identical to a
///                      single-process run
///   --worker-id=I      run as fleet worker I: simulate only the shards
///                      `shard % n_workers == I`, journal S/O records to
///                      the given --checkpoint path, publish nothing
///   --n-workers=N      fleet size the worker partitions against
///   --hang-timeout=S   supervisor: a worker whose journal stops growing
///                      for S seconds is SIGTERM'd, then SIGKILL'd (0=off)
///   --heartbeat=S      worker: append an `H` liveness record every S
///                      seconds while between shards (default 0.25)
///   --chaos-kill=W:K[,W:K...]
///                      supervisor: pass --chaos-kill-after-shards=K to
///                      worker W's FIRST incarnation (chaos testing)
///   --chaos-kill-after-shards=K
///                      worker: raise SIGKILL on itself after journaling
///                      K shards — a scripted crash with a durable journal
///
/// Every JSONL record is stamped with `schema_version` and the build's
/// git SHA, so journals merged from different binaries are detectable.
/// The --metrics/--trace streams contain no wall-clock fields, so they
/// inherit the campaign's resume guarantee: a killed-and-resumed run
/// publishes byte-identical telemetry JSONL (shard telemetry is journaled
/// as `O` records and replayed bit-exactly).

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/link_simulator.hpp"
#include "runtime/campaign.hpp"
#include "runtime/distributed/journal_merge.hpp"
#include "runtime/distributed/supervisor.hpp"

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
inline constexpr std::size_t kSchemaVersion = 7;

/// Exit status of a gracefully drained (SIGINT/SIGTERM) checkpointed
/// campaign: the run is incomplete but everything finished is journaled —
/// rerun with --resume to continue. 75 = BSD EX_TEMPFAIL.
inline constexpr int kExitResumable = 75;

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

  // Distributed-campaign knobs (src/runtime/distributed).
  std::size_t supervise_workers = 0;  ///< --supervise=N; 0 = not supervising
  bool worker = false;                ///< --worker-id given: run one fleet slice
  std::size_t worker_id = 0;          ///< this worker's slot in [0, n_workers)
  std::size_t n_workers = 1;          ///< fleet size the partition divides by
  double hang_timeout_s = 0.0;        ///< supervisor journal-stall budget; 0 = off
  double heartbeat_s = 0.25;          ///< worker heartbeat period
  std::size_t chaos_kill_after_shards = 0;  ///< worker: SIGKILL self after K shards
  std::string chaos_kill_spec;        ///< supervisor: "W:K[,W:K...]"

  std::string argv0;  ///< this binary's path — the supervisor re-execs it
  /// Simulation-identity and runtime flags to forward verbatim to worker
  /// incarnations (--packets/--seed/--jnr/--threads/--shards/
  /// --shard-timeout/--heartbeat). Output and orchestration flags are
  /// deliberately NOT forwarded: workers never publish.
  std::vector<std::string> forward_args;

  /// True when any telemetry stream was requested.
  [[nodiscard]] bool telemetry_enabled() const noexcept {
    return !metrics_path.empty() || !trace_path.empty();
  }

  /// Journal path in effect (resume wins over checkpoint).
  [[nodiscard]] const std::string& journal_path() const noexcept {
    return resume_path.empty() ? checkpoint_path : resume_path;
  }

  /// Scripted chaos kill point for worker `w` out of --chaos-kill, or 0.
  [[nodiscard]] std::size_t chaos_kill_for(std::size_t w) const {
    const char* p = chaos_kill_spec.c_str();
    while (*p != '\0') {
      char* end = nullptr;
      const std::size_t worker_tok = static_cast<std::size_t>(std::strtoull(p, &end, 10));
      if (end == p || *end != ':') break;
      p = end + 1;
      const std::size_t kill_after = static_cast<std::size_t>(std::strtoull(p, &end, 10));
      if (end == p) break;
      if (worker_tok == w) return kill_after;
      p = *end == ',' ? end + 1 : end;
    }
    return 0;
  }
};

inline Options parse_options(int argc, char** argv, std::size_t default_packets = 12,
                             double default_jnr_db = 30.0) {
  Options opt;
  opt.packets = default_packets;
  opt.jnr_db = default_jnr_db;
  opt.argv0 = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    bool forward = false;  // worker incarnations must see this flag verbatim
    if (std::strncmp(argv[i], "--packets=", 10) == 0) {
      opt.packets = static_cast<std::size_t>(std::strtoull(argv[i] + 10, nullptr, 10));
      forward = true;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      opt.seed = std::strtoull(argv[i] + 7, nullptr, 10);
      forward = true;
    } else if (std::strncmp(argv[i], "--jnr=", 6) == 0) {
      opt.jnr_db = std::strtod(argv[i] + 6, nullptr);
      forward = true;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      opt.threads = static_cast<std::size_t>(std::strtoull(argv[i] + 10, nullptr, 10));
      forward = true;
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      opt.shards = static_cast<std::size_t>(std::strtoull(argv[i] + 9, nullptr, 10));
      forward = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      opt.json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--checkpoint=", 13) == 0) {
      opt.checkpoint_path = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--resume=", 9) == 0) {
      opt.resume_path = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--shard-timeout=", 16) == 0) {
      opt.shard_timeout_s = std::strtod(argv[i] + 16, nullptr);
      forward = true;
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      opt.metrics_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      opt.trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--supervise=", 12) == 0) {
      opt.supervise_workers =
          static_cast<std::size_t>(std::strtoull(argv[i] + 12, nullptr, 10));
    } else if (std::strncmp(argv[i], "--worker-id=", 12) == 0) {
      opt.worker = true;
      opt.worker_id = static_cast<std::size_t>(std::strtoull(argv[i] + 12, nullptr, 10));
    } else if (std::strncmp(argv[i], "--n-workers=", 12) == 0) {
      opt.n_workers = static_cast<std::size_t>(std::strtoull(argv[i] + 12, nullptr, 10));
    } else if (std::strncmp(argv[i], "--hang-timeout=", 15) == 0) {
      opt.hang_timeout_s = std::strtod(argv[i] + 15, nullptr);
    } else if (std::strncmp(argv[i], "--heartbeat=", 12) == 0) {
      opt.heartbeat_s = std::strtod(argv[i] + 12, nullptr);
      forward = true;
    } else if (std::strncmp(argv[i], "--chaos-kill=", 13) == 0) {
      opt.chaos_kill_spec = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--chaos-kill-after-shards=", 26) == 0) {
      opt.chaos_kill_after_shards =
          static_cast<std::size_t>(std::strtoull(argv[i] + 26, nullptr, 10));
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: %s [--packets=N] [--seed=N] [--jnr=dB] [--threads=N] [--shards=N]\n"
                  "          [--json=PATH] [--checkpoint=PATH] [--resume=PATH]\n"
                  "          [--shard-timeout=S] [--metrics=PATH] [--trace=PATH]\n"
                  "          [--supervise=N] [--hang-timeout=S] [--chaos-kill=W:K,...]\n"
                  "          [--worker-id=I --n-workers=N] [--heartbeat=S]\n"
                  "          [--chaos-kill-after-shards=K]\n",
                  argv[0]);
      std::exit(0);
    }
    if (forward) opt.forward_args.emplace_back(argv[i]);
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
    if (opt.supervise_workers > 0) {
      if (journal_path.empty() || opt.worker) {
        std::fprintf(stderr,
                     "%s: --supervise requires --checkpoint/--resume and excludes "
                     "--worker-id\n",
                     figure_.c_str());
        std::exit(2);
      }
      runtime::CampaignRunner::install_signal_handlers();
      supervise_fleet(opt, journal_path);  // exits kExitResumable on drain
    }
    if (worker_mode_ &&
        (journal_path.empty() || opt.n_workers < 1 || opt.worker_id >= opt.n_workers)) {
      std::fprintf(stderr,
                   "%s: worker mode requires --checkpoint/--resume and "
                   "--worker-id < --n-workers\n",
                   figure_.c_str());
      std::exit(2);
    }
    if (!journal_path.empty()) {
      remove_stale_tmp(journal_path);
      journal_.open(journal_path, figure_, static_cast<int>(kSchemaVersion), build_git_sha(),
                    /*resume=*/!opt.resume_path.empty() || supervised_);
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
      // supervisor's merge. Telemetry is ALWAYS collected (collect-only
      // sink) so every journaled shard carries its O record: the final
      // pass can then honor --metrics/--trace without re-running shards.
      if (!opt.json_path.empty() || opt.telemetry_enabled()) {
        std::fprintf(stderr, "%s: worker %zu ignores --json/--metrics/--trace\n",
                     figure_.c_str(), opt.worker_id);
      }
      runner_->telemetry_sink = [](const std::string&, const core::SimConfig&,
                                   const core::LinkStats&,
                                   const std::vector<obs::ShardTelemetry>&) {};
      if (opt.chaos_kill_after_shards > 0) {
        runner_->shard_journaled_hook = [this,
                                         kill_after = opt.chaos_kill_after_shards](
                                            std::size_t) {
          if (chaos_journaled_.fetch_add(1, std::memory_order_relaxed) + 1 >= kill_after) {
            std::raise(SIGKILL);  // scripted crash: the journal is already durable
          }
        };
      }
      if (opt.heartbeat_s > 0.0) start_heartbeat(opt.worker_id, opt.heartbeat_s);
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

  ~Campaign() { stop_heartbeat(); }

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
  /// A fleet worker skips bisections entirely (returns 0): partial-shard
  /// PER would steer each worker down a different probe path, journaling
  /// unmergeable same-point records. The supervisor's final pass computes
  /// them in-process — distributed campaigns parallelize the run_point
  /// sweeps, not the bisection probes.
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
  /// log the wall time to the timing sidecar. A fleet worker publishes
  /// nothing — not even `P` records: the canonical publish happens in the
  /// supervisor's final pass, and a worker-written `P` would carry stats
  /// merged from a partial shard slice.
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
  /// Fork/exec the worker fleet, supervise it to completion, fold the
  /// worker journals into the campaign journal and fall through to the
  /// normal (single-process) publish path. Exits kExitResumable when the
  /// fleet drained on SIGINT/SIGTERM. See supervisor.hpp for semantics.
  void supervise_fleet(const Options& opt, const std::string& journal_path) {
    namespace dist = runtime::distributed;
    dist::SupervisorOptions sup;
    sup.n_workers = opt.supervise_workers;
    sup.journal_base = journal_path;
    sup.hang_timeout_s = opt.hang_timeout_s;
    dist::CampaignSupervisor supervisor(
        sup, [&opt, &journal_path](std::size_t worker, bool resume) {
          std::vector<std::string> argv{opt.argv0};
          argv.insert(argv.end(), opt.forward_args.begin(), opt.forward_args.end());
          argv.push_back("--worker-id=" + std::to_string(worker));
          argv.push_back("--n-workers=" + std::to_string(opt.supervise_workers));
          const std::string worker_journal =
              dist::CampaignSupervisor::worker_journal_path(journal_path, worker);
          argv.push_back((resume ? "--resume=" : "--checkpoint=") + worker_journal);
          if (!resume) {
            // Chaos injection arms the FIRST incarnation only: the whole
            // point is that the respawn resumes cleanly past the kill.
            const std::size_t kill_after = opt.chaos_kill_for(worker);
            if (kill_after > 0) {
              argv.push_back("--chaos-kill-after-shards=" + std::to_string(kill_after));
            }
          }
          return argv;
        });
    std::fprintf(stderr, "%s: supervising %zu workers (journals %s.w*)\n", figure_.c_str(),
                 sup.n_workers, journal_path.c_str());
    const dist::FleetResult fleet = supervisor.run();

    // Fleet accounting goes through the obs fleet registry — a separate
    // schema from the link telemetry, because these counters describe the
    // orchestration, not the experiment, and must never perturb the
    // published streams.
    obs::MetricsShard counters(&obs::fleet_registry());
    const obs::FleetIds& ids = obs::fleet_ids();
    counters.add(ids.worker_restarts, fleet.fleet.worker_restarts);
    counters.add(ids.worker_crashes, fleet.fleet.worker_crashes);
    counters.add(ids.worker_drains, fleet.fleet.worker_drains);
    counters.add(ids.workers_failed, fleet.failed_workers.size());
    for (const std::size_t failed : fleet.failed_workers) {
      const dist::ShardPartition slice{failed, opt.supervise_workers};
      counters.add(ids.shards_quarantined, slice.owned_count(opt.shards));
    }
    std::fprintf(stderr, "%s: fleet {%s}\n", figure_.c_str(),
                 obs::metrics_json_body(counters).c_str());

    if (fleet.drained) {
      std::fprintf(stderr,
                   "%s: fleet drained — rerun with --supervise=%zu --resume=%s to "
                   "continue\n",
                   figure_.c_str(), opt.supervise_workers, journal_path.c_str());
      std::exit(kExitResumable);
    }

    std::vector<std::string> inputs;
    for (const std::string& worker_journal : fleet.worker_journals) {
      if (std::FILE* probe = std::fopen(worker_journal.c_str(), "rb")) {
        std::fclose(probe);
        inputs.push_back(worker_journal);
      }
    }
    std::string base;
    if (std::FILE* probe = std::fopen(journal_path.c_str(), "rb")) {
      std::fclose(probe);
      base = journal_path;  // previous supervised/partial run: fold it in
    }
    try {
      const dist::MergeReport report = dist::merge_journals(inputs, journal_path, base);
      std::fprintf(stderr,
                   "%s: merged %zu journals -> %s (%zu shard records, %zu telemetry, "
                   "%zu duplicates folded, %zu torn tails recovered)\n",
                   figure_.c_str(), report.inputs, journal_path.c_str(),
                   report.shard_records, report.obs_records, report.duplicates_folded,
                   report.torn_tails);
    } catch (const dist::JournalMergeError& e) {
      std::fprintf(stderr, "%s: %s\n", figure_.c_str(), e.what());
      std::exit(1);
    }
    supervised_ = true;  // the constructor now resumes from the merged journal
  }

  /// Worker liveness: append an `H` record every `period_s` so the
  /// supervisor can tell "slow shard" from "hung worker" even when no
  /// shard completes for a while.
  void start_heartbeat(std::size_t worker_id, double period_s) {
    heartbeat_ = std::thread([this, worker_id, period_s] {
      std::size_t sequence = 0;
      auto next = std::chrono::steady_clock::now();
      while (!heartbeat_stop_.load(std::memory_order_relaxed)) {
        next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(period_s));
        while (!heartbeat_stop_.load(std::memory_order_relaxed) &&
               std::chrono::steady_clock::now() < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        if (heartbeat_stop_.load(std::memory_order_relaxed)) return;
        try {
          journal_.record_heartbeat(worker_id, sequence++);
        } catch (const runtime::JournalWriteError&) {
          return;  // the next shard append will surface the failure
        }
      }
    });
  }

  void stop_heartbeat() {
    if (heartbeat_.joinable()) {
      heartbeat_stop_.store(true, std::memory_order_relaxed);
      heartbeat_.join();
    }
  }

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
  bool supervised_ = false;
  runtime::CheckpointJournal journal_;
  std::optional<runtime::CampaignRunner> runner_;
  JsonLog log_;
  JsonLog timing_;
  JsonLog metrics_log_;
  JsonLog trace_log_;
  JsonLog obs_timing_;
  std::thread heartbeat_;
  std::atomic<bool> heartbeat_stop_{false};
  std::atomic<std::size_t> chaos_journaled_{0};
};

}  // namespace bhss::bench
