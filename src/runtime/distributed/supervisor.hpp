#pragma once

/// @file supervisor.hpp
/// Process-level supervision of a distributed campaign worker fleet.
///
/// `CampaignSupervisor` fork/execs one worker process per fleet slot and
/// babysits them until the campaign's shard set is covered:
///
///  - **Spawn**: worker i's argv comes from a caller-supplied command
///    builder (the bench binary re-execs itself with `--worker-id=i`;
///    tests substitute /bin/sh scripts). stdout/stderr are appended to
///    `<worker journal>.log` so a crashed worker's last words survive it.
///  - **Liveness**: a worker proves progress by growing its journal —
///    every journaled shard is an fsync'd append, and an otherwise idle
///    worker writes `H` heartbeat records. A journal that stops growing
///    for `hang_timeout_s` marks the worker hung: SIGTERM first (a
///    healthy-but-slow worker drains with a clean tail and exit 75), then
///    SIGKILL after `term_grace_s`.
///  - **Restart**: a crashed or hung worker is respawned with `--resume`
///    after exponential backoff; the journal it left behind — torn tail
///    and all — is exactly a kill-and-resume checkpoint, so the respawn
///    recomputes only what was not yet durable. Each respawn consumes the
///    worker's `max_restarts` budget.
///  - **Quarantine**: a worker that exhausts its budget is given up on —
///    its owned shard *range* is quarantined from fleet execution and the
///    worker id is reported in `FleetResult::failed_workers`. The shards
///    themselves are not lost: the supervisor's final publish pass is a
///    normal resumed campaign, which recomputes any shard missing from
///    the merged journal in-process (deterministically, so the published
///    bytes cannot tell the difference).
///  - **Drain**: on SIGINT/SIGTERM (via CampaignRunner's interrupt flag,
///    whose handlers must be installed) the supervisor SIGTERMs the
///    fleet, waits for the workers' own graceful drains (exit 75), and
///    returns with `drained` set so the caller can exit 75 itself.
///
/// Exit-code taxonomy (`FleetResult::fleet` counts it): 0 = worker
/// finished its slice; 75 = graceful drain, resumable; anything else, or
/// death by signal, is a crash.
/// These counters are *process-level* accounting and are deliberately
/// kept out of the published per-point statistics — a supervised
/// campaign's JSONL/metrics/trace bytes must stay identical to a
/// single-process run no matter how much chaos the fleet absorbed.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace bhss::runtime::distributed {

/// Fleet knobs. `journal_base` is the supervisor's own checkpoint path;
/// worker i journals to `<journal_base>.w<i>`.
struct SupervisorOptions {
  std::size_t n_workers = 2;      ///< fleet size (>= 1)
  std::string journal_base;       ///< campaign checkpoint path (required)
  double hang_timeout_s = 0.0;    ///< journal-growth stall budget; 0 = off
  double term_grace_s = 2.0;      ///< SIGTERM -> SIGKILL escalation delay
  std::size_t max_restarts = 3;   ///< respawn budget per worker
  double backoff_base_s = 0.05;   ///< respawn backoff: base * 2^(restart-1)
  double poll_interval_s = 0.05;  ///< supervision loop period
};

/// Builds worker `worker`'s argv. `resume` is true when the worker's
/// journal already exists (any incarnation after the first, or a re-run
/// over a previous fleet's journals) — the worker must then be launched
/// with `--resume`, and one-shot flags like chaos injection must be
/// omitted.
using WorkerCommand =
    std::function<std::vector<std::string>(std::size_t worker, bool resume)>;

/// Worker exit-code taxonomy, summed over every incarnation of the fleet.
struct FleetCounters {
  std::size_t worker_restarts = 0;  ///< worker processes respawned (crash/hang retry)
  std::size_t worker_crashes = 0;   ///< worker exits by signal or nonzero status
  std::size_t worker_drains = 0;    ///< workers that drained gracefully (exit 75)
};

/// What the fleet did.
struct FleetResult {
  bool completed = false;  ///< every worker finished its slice (exit 0)
  bool drained = false;    ///< drain requested; fleet exited resumable
  std::vector<std::size_t> failed_workers;  ///< restart budget exhausted
  FleetCounters fleet;

  /// Worker journal paths, in worker order — the merge input list.
  std::vector<std::string> worker_journals;
};

/// Supervise one fleet to completion (or drain, or budget exhaustion).
class CampaignSupervisor {
 public:
  CampaignSupervisor(SupervisorOptions options, WorkerCommand command);

  /// Run the fleet. Blocks until every worker is done, drained or given
  /// up on. Never throws on worker failure — that is what the taxonomy
  /// is for; throws std::runtime_error only on supervisor-side
  /// impossibilities (fork failure, empty command).
  [[nodiscard]] FleetResult run();

  /// `<journal_base>.w<worker>` — the partition's journal naming scheme,
  /// shared with the bench worker mode and the chaos harness.
  [[nodiscard]] static std::string worker_journal_path(const std::string& base,
                                                      std::size_t worker);

 private:
  SupervisorOptions options_;
  WorkerCommand command_;
};

}  // namespace bhss::runtime::distributed
