#pragma once

/// @file parallel_link_runner.hpp
/// The Monte-Carlo runner: every link experiment, plain or checkpointed,
/// goes through one ParallelLinkRunner.
///
/// The paper evaluates 10 000 packets per data point (§6); the sequential
/// `core::run_link` loop made that cost minutes per figure. The runner
/// splits `SimConfig::n_packets` into a *fixed* number of shards, gives
/// every shard a deterministically derived seed tuple (channel,
/// impairments, jammer) via `core::SharedRandom::split_seed`, simulates
/// shards on a `ThreadPool`, and merges the per-shard `LinkStats` in
/// shard order.
///
/// Determinism contract: the merged result is a pure function of
/// (SimConfig, n_shards). Thread count — 1, 8 or anything else — only
/// changes wall time, never a single bit of the statistics. The contract
/// is *fixed shards*, not fixed threads: comparing runs with different
/// `n_shards` compares different (equally valid) random-stream draws.
///
/// A paper-scale figure regeneration is hours of simulation across many
/// (SNR, jammer-bandwidth, hop-pattern) data points, so `run_point` turns
/// each data point into (data-point, shard) work units keyed by
/// `(point id, params hash, seed, shard)`:
///
///  - Completed units are journaled to a CRC-protected, fsync'd
///    CheckpointJournal; a crashed or killed campaign resumes by replaying
///    the journal and re-running only the missing units. Because every
///    shard is a pure function of its seed tuple, the resumed merge is
///    bit-identical to an uninterrupted run at any thread count.
///  - A per-shard watchdog bounds how long one shard may run. A shard
///    that overruns is retried with exponential backoff (a deterministic
///    retry: same seeds, same result) up to `max_attempts`, then
///    quarantined — the campaign finishes with `shard_timeout` accounted
///    in the merged failure taxonomy instead of hanging forever or
///    silently dropping the loss.
///  - SIGINT/SIGTERM request a graceful drain: in-flight shards finish
///    and are journaled, un-started shards are skipped, and the runner
///    throws CampaignInterrupted so the caller can exit with a distinct
///    "resumable" status instead of losing the session's work.
///
/// `run(cfg)` is the same machinery without a journal: every shard, no
/// lookups, no records. For identical (SimConfig, n_shards) it returns
/// the same LinkStats as `run_point`.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "core/link_simulator.hpp"
#include "runtime/checkpoint_journal.hpp"
#include "runtime/distributed/shard_partition.hpp"
#include "runtime/thread_pool.hpp"

namespace bhss::runtime {

/// Runner knobs. `n_shards` is part of the experiment identity (see the
/// determinism contract above); everything else only changes wall time or
/// failure handling. `partition` selects this process's slice of the
/// shard set when a campaign is split across worker processes
/// (shard_partition.hpp) — it is NOT part of the experiment identity
/// either: the params hash covers `n_shards` only, so worker journals
/// merge cleanly back into the single-process keyspace. The first two
/// fields come first so `{threads, shards}` initializes positionally.
struct RunnerOptions {
  std::size_t n_threads = 0;     ///< total concurrency; 0 = hardware threads
  std::size_t n_shards = 16;     ///< fixed shard count (>= 1)
  double shard_timeout_s = 0.0;  ///< watchdog budget per shard attempt; 0 = off
  std::size_t max_attempts = 3;  ///< attempts per shard before quarantine
  double backoff_base_s = 0.05;  ///< retry backoff: base * 2^(attempt-1)
  distributed::ShardPartition partition{};  ///< this process's shard slice
};

/// Thrown when a drain was requested (SIGINT/SIGTERM or programmatic):
/// everything finished so far is journaled; rerun with --resume to
/// continue. Carries no data — the journal is the state.
class CampaignInterrupted : public std::runtime_error {
 public:
  CampaignInterrupted() : std::runtime_error("campaign interrupted — resumable") {}
};

/// Thread-pool-backed drop-in for `core::run_link` and the §6.3
/// measurement procedures. One runner owns one pool; reuse it across data
/// points so the workers persist.
class ParallelLinkRunner {
 public:
  /// `journal` may be null (no checkpointing). The journal must outlive
  /// the runner.
  explicit ParallelLinkRunner(RunnerOptions options = {}, CheckpointJournal* journal = nullptr);

  /// Parallel equivalent of `core::run_link(cfg)` under the determinism
  /// contract: every shard, nothing journaled. Shards `cfg.n_packets` as
  /// evenly as possible (the first `n_packets % n_shards` shards get one
  /// extra packet); empty shards are skipped.
  [[nodiscard]] core::LinkStats run(const core::SimConfig& cfg);

  /// Same run, additionally collecting per-shard telemetry. `telemetry`
  /// (may be null → identical to `run(cfg)`) is resized to `n_shards`
  /// bundles; shard i writes only into element i, so the collection is
  /// lock-free by construction and, per the merge-order contract in
  /// link_simulator.hpp, `obs::merge_telemetry` over the result is a pure
  /// function of (SimConfig, n_shards). Telemetry never perturbs the
  /// simulation: the returned stats are bit-identical to `run(cfg)`.
  [[nodiscard]] core::LinkStats run(const core::SimConfig& cfg,
                                    std::vector<obs::ShardTelemetry>* telemetry);

  /// Simulate one data point under the campaign contract. `point_id`
  /// must be whitespace-free, at most `journal::kMaxPointIdLength` bytes
  /// and unique within the campaign; shards already present in the
  /// journal under the same params hash are loaded instead of re-run.
  /// Throws CampaignInterrupted on a drain request.
  ///
  /// With a distributing `partition`, only owned shards are simulated and
  /// journaled; the others contribute default elements to the returned
  /// merge, which is therefore PARTIAL — a worker's return value is shard
  /// bookkeeping, not the data point. The canonical stats come from the
  /// publish pass over the merged worker journals.
  [[nodiscard]] core::LinkStats run_point(const std::string& point_id,
                                          const core::SimConfig& cfg);

  /// Paper §6.3 bisection with every PER probe checkpointed as its own
  /// work unit (`<point_id>/p<n>`). The probe sequence is deterministic
  /// because every probe's PER is, so a resumed bisection walks the same
  /// SNR path and reuses the journaled probes.
  ///
  /// Refuses to run under a distributing partition: each probe's PER
  /// would be computed from a partial shard slice, so different workers
  /// would walk *different* bisection paths and journal same-point-id
  /// records for different SNR configs — unmergeable by construction.
  /// The publish pass computes bisections in-process instead.
  [[nodiscard]] double min_snr_for_per(const std::string& point_id,
                                       const core::SimConfig& cfg, double target_per = 0.5,
                                       double lo_db = -10.0, double hi_db = 45.0,
                                       double tol_db = 0.5);

  /// Fingerprint of every SimConfig field that can change the merged
  /// statistics, plus `n_shards`. Journal records carry it so a resumed
  /// run never reuses work computed under different parameters.
  [[nodiscard]] static std::uint64_t params_hash(const core::SimConfig& cfg,
                                                 std::size_t n_shards) noexcept;

  // -- graceful shutdown ------------------------------------------------
  /// Route SIGINT/SIGTERM to a drain request (process-wide; call once
  /// from main when checkpointing is active).
  static void install_signal_handlers() noexcept;
  /// Programmatic drain request — what the signal handler calls, exposed
  /// for tests and embedders.
  static void request_interrupt() noexcept;
  static void clear_interrupt() noexcept;  ///< reset between tests
  [[nodiscard]] static bool interrupt_requested() noexcept;

  /// Timed-out shard threads are parked in a process-wide registry rather
  /// than detached; this blocks until every parked thread has finished.
  /// For tests and orderly embedders that tear down state a runaway shard
  /// may still be reading. Production exit paths should NOT call it — a
  /// genuinely hung shard is exactly what must not block exit.
  static void join_abandoned_threads();

  [[nodiscard]] std::size_t threads() const noexcept { return pool_.size(); }
  [[nodiscard]] std::size_t shards() const noexcept { return options_.n_shards; }

  /// The seed tuple shard `shard` runs with — exposed for the determinism
  /// tests (golden values) and for reproducing a single shard in
  /// isolation.
  [[nodiscard]] BHSS_HOT static core::ShardSeeds shard_seeds(const core::SimConfig& cfg,
                                                             std::size_t shard) noexcept;

  /// Global packet range [first, first + count) of shard `shard` when
  /// `n_packets` packets are split over `n_shards` shards (the first
  /// `n_packets % n_shards` shards carry one extra packet). This IS the
  /// determinism contract's work partition: the journal records and
  /// resumes against exactly this plan, so a resumed campaign transmits
  /// the same frames as an uninterrupted one.
  struct ShardRange {
    std::size_t first = 0;
    std::size_t count = 0;
  };
  [[nodiscard]] BHSS_HOT static ShardRange shard_range(std::size_t n_packets, std::size_t n_shards,
                                                       std::size_t shard) noexcept;

  /// Test-only fault hook, run inside every shard attempt before the
  /// simulation: (shard index, attempt index). A hook that sleeps past
  /// the watchdog budget simulates a hung shard.
  std::function<void(std::size_t, std::size_t)> shard_hook;

  /// Telemetry consumer. When set, every run_point collects per-shard
  /// telemetry (metrics + traces) and invokes the sink after the merge —
  /// including for points satisfied entirely from the journal, whose
  /// bundles are rebuilt from `O` records. A journaled shard *without* an
  /// `O` record (it ran before telemetry was requested) is re-run — a
  /// deterministic replay, so its stats are unchanged. Quarantined shards
  /// contribute a default bundle at their index, mirroring their
  /// default-constructed LinkStats. Arguments: (point id, config, merged
  /// stats, per-shard bundles in ascending shard order).
  std::function<void(const std::string&, const core::SimConfig&, const core::LinkStats&,
                     const std::vector<obs::ShardTelemetry>&)>
      telemetry_sink;

 private:
  /// Run `pending` into `slots` (and `telemetry`, when given), journaling
  /// each finished shard under `key` unless `key` is null, then merge.
  /// `quarantined` counts shards already lost before this call.
  core::LinkStats execute(const JournalKey* key, const core::SimConfig& cfg,
                          std::vector<std::size_t> pending, std::vector<core::LinkStats>& slots,
                          std::vector<obs::ShardTelemetry>* telemetry, std::size_t quarantined);
  void execute_pooled(const JournalKey* key, const core::SimConfig& cfg,
                      const std::vector<std::size_t>& pending,
                      std::vector<core::LinkStats>& slots,
                      std::vector<obs::ShardTelemetry>* telemetry);
  void execute_watchdogged(const JournalKey* key, const core::SimConfig& cfg,
                           std::vector<std::size_t> pending,
                           std::vector<core::LinkStats>& slots,
                           std::vector<obs::ShardTelemetry>* telemetry,
                           std::size_t& retried_shards, std::size_t& quarantined_shards);
  /// Write one finished shard's `O` (when telemetry is collected) and `S`
  /// records. No-op without a journal or key.
  void journal_shard(const JournalKey* key, std::size_t shard, const core::LinkStats& stats,
                     const obs::ShardTelemetry* telemetry);
  /// Flush the journal and throw CampaignInterrupted.
  [[noreturn]] void drain();

  RunnerOptions options_;
  ThreadPool pool_;
  CheckpointJournal* journal_;
};

/// Merge one data point's per-shard results under the shared merge-order
/// contract (link_simulator.hpp): both vectors are left folds in ascending
/// shard order, and a quarantined shard contributes a default element at
/// its index in *both*. BHSS_REQUIREs that `telemetry` (when given) has
/// exactly `stats.size()` elements — the single enforcement point keeping
/// the stats merge and the telemetry merge from silently diverging.
/// `merged_telemetry` (optional) receives the merged bundle when
/// `telemetry` is non-null.
[[nodiscard]] core::LinkStats merge_point_results(
    const std::vector<core::LinkStats>& stats,
    const std::vector<obs::ShardTelemetry>* telemetry, std::size_t payload_len,
    obs::ShardTelemetry* merged_telemetry = nullptr);

}  // namespace bhss::runtime
