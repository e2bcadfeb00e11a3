#include "runtime/parallel_link_runner.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>

#include "core/contracts.hpp"
#include "core/shared_random.hpp"
#include "runtime/journal_format.hpp"

namespace bhss::runtime {
namespace {

/// Stream ids for the per-shard seed split. Fixed forever: changing them
/// silently re-rolls every recorded experiment.
constexpr std::uint64_t kChannelStream = 0x11;
constexpr std::uint64_t kImpairmentStream = 0x22;
constexpr std::uint64_t kJammerStream = 0x33;

/// The one place a shard is simulated: its packet range, its seed tuple,
/// `core::run_link_shard`. Empty shards return default stats. The pooled
/// path, the watchdog path and `run` all go through here.
core::LinkStats run_shard(const core::SimConfig& cfg, std::size_t n_shards, std::size_t shard,
                          obs::ShardTelemetry* telemetry) {
  const auto range = ParallelLinkRunner::shard_range(cfg.n_packets, n_shards, shard);
  if (range.count == 0) return {};
  return core::run_link_shard(cfg, range.first, range.count,
                              ParallelLinkRunner::shard_seeds(cfg, shard), obs::LinkObs{telemetry});
}

// ------------------------------------------------------------ drain request

/// Drain flag, set from signal handlers (SIGINT/SIGTERM) and from
/// ordinary threads (request_interrupt — tests and embedders). A
/// lock-free atomic is async-signal-safe AND thread-safe; plain
/// sig_atomic_t would be a data race for the cross-thread case. The
/// runner polls it at shard boundaries, so in-flight shards drain instead
/// of dying mid-write.
std::atomic<int> g_interrupt{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "drain flag must stay usable from a signal handler");

void handle_drain_signal(int /*signum*/) {
  g_interrupt.store(1, std::memory_order_relaxed);
}

// ------------------------------------------------------ abandoned threads

/// A shard that overruns its watchdog budget cannot be joined on the
/// campaign's critical path (it may be genuinely hung), but a plain
/// detach makes process teardown race whatever shared state the runaway
/// thread still touches. Park such threads here instead: the campaign
/// moves on immediately, and join_abandoned_threads() lets tests wait
/// them out. The vector is deliberately immortal — running its
/// destructor at exit with a still-hung thread inside would
/// std::terminate — so it lives in a union whose destructor does
/// nothing (the no-destruct idiom; keeps the project's no-raw-new rule).
std::mutex g_abandoned_mu;

std::vector<std::thread>& abandoned_threads() {
  union Holder {
    std::vector<std::thread> v;
    Holder() : v() {}
    ~Holder() {}  // never destroy v
  };
  static Holder holder;
  return holder.v;
}

void park_abandoned(std::thread th) {
  const std::lock_guard<std::mutex> lock(g_abandoned_mu);
  abandoned_threads().push_back(std::move(th));
}

// ------------------------------------------------------------- params hash

/// FNV-1a-64 over a canonical little-endian serialization of the config.
/// Floats are hashed as IEEE-754 bit patterns: two configs hash equal iff
/// the simulation would compute the same statistics.
class Fnv1a {
 public:
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
  void f32(float v) noexcept { u64(std::bit_cast<std::uint32_t>(v)); }
  template <typename E>
  void enm(E v) noexcept {
    u64(static_cast<std::uint64_t>(v));
  }
  void vec(const std::vector<double>& v) noexcept {
    u64(v.size());
    for (const double x : v) f64(x);
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return hash_; }

 private:
  void byte(std::uint8_t b) noexcept {
    hash_ ^= b;
    hash_ *= 0x100000001B3ULL;
  }
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace

ParallelLinkRunner::ParallelLinkRunner(RunnerOptions options, CheckpointJournal* journal)
    : options_(options), pool_(options.n_threads), journal_(journal) {
  BHSS_REQUIRE(options_.n_shards >= 1, "ParallelLinkRunner: n_shards must be >= 1");
  BHSS_REQUIRE(options_.max_attempts >= 1, "ParallelLinkRunner: max_attempts must be >= 1");
  options_.partition.validate();
}

core::ShardSeeds ParallelLinkRunner::shard_seeds(const core::SimConfig& cfg,
                                                 std::size_t shard) noexcept {
  using core::SharedRandom;
  return core::ShardSeeds{
      SharedRandom::split_seed(cfg.channel_seed, kChannelStream, shard),
      SharedRandom::split_seed(cfg.channel_seed, kImpairmentStream, shard),
      SharedRandom::split_seed(cfg.jammer.seed, kJammerStream, shard),
  };
}

ParallelLinkRunner::ShardRange ParallelLinkRunner::shard_range(std::size_t n_packets,
                                                               std::size_t n_shards,
                                                               std::size_t shard) noexcept {
  const std::size_t base = n_packets / n_shards;
  const std::size_t extra = n_packets % n_shards;
  return {shard * base + std::min(shard, extra), base + (shard < extra ? 1 : 0)};
}

void ParallelLinkRunner::install_signal_handlers() noexcept {
  std::signal(SIGINT, &handle_drain_signal);
  std::signal(SIGTERM, &handle_drain_signal);
}

void ParallelLinkRunner::request_interrupt() noexcept {
  g_interrupt.store(1, std::memory_order_relaxed);
}
void ParallelLinkRunner::clear_interrupt() noexcept {
  g_interrupt.store(0, std::memory_order_relaxed);
}
bool ParallelLinkRunner::interrupt_requested() noexcept {
  return g_interrupt.load(std::memory_order_relaxed) != 0;
}

void ParallelLinkRunner::join_abandoned_threads() {
  for (;;) {
    std::vector<std::thread> batch;
    {
      const std::lock_guard<std::mutex> lock(g_abandoned_mu);
      batch.swap(abandoned_threads());
    }
    if (batch.empty()) return;
    for (std::thread& th : batch) th.join();
  }
}

// Every field of SimConfig (and of everything it embeds) that influences
// the simulated statistics goes into the fingerprint, in declaration
// order. When SimConfig grows a field, add it here — a missed field means
// resume can silently reuse work computed under different parameters.
std::uint64_t ParallelLinkRunner::params_hash(const core::SimConfig& cfg,
                                              std::size_t n_shards) noexcept {
  Fnv1a h;

  const core::SystemConfig& sys = cfg.system;
  h.u64(sys.seed);
  const core::BandwidthSet& bands = sys.pattern.bands();
  h.f64(bands.sample_rate_hz());
  h.u64(bands.size());
  for (std::size_t i = 0; i < bands.size(); ++i) h.u64(bands.sps(i));
  h.vec(sys.pattern.probabilities());
  h.u64(sys.symbols_per_hop);
  h.u64(sys.hopping ? 1 : 0);
  h.u64(sys.fixed_bw_index);
  h.enm(sys.sync);
  h.enm(sys.filter_policy);
  const core::ControlLogicConfig& logic = sys.logic;
  h.u64(logic.psd_fft);
  h.f64(logic.welch_overlap);
  h.enm(logic.psd_method);
  h.u64(logic.max_lpf_taps);
  h.f64(logic.lpf_atten_db);
  h.f64(logic.lpf_cutoff_factor);
  h.f64(logic.oob_level_ratio);
  h.f64(logic.peak_over_median_db);
  h.f64(logic.excision_match_guard);
  h.f64(logic.excision_floor_rel);
  h.enm(logic.excision_style);
  h.f32(sys.sync_threshold);
  h.u64(sys.reacquisition.max_attempts);
  h.f64(sys.reacquisition.lag_widen);
  h.f32(sys.reacquisition.threshold_decay);
  h.f32(sys.reacquisition.min_threshold);
  h.f32(sys.reacquisition.min_margin);
  h.u64(sys.carrier_tracking ? 1 : 0);
  h.f32(sys.costas_bandwidth);

  const core::JammerSpec& jam = cfg.jammer;
  h.enm(jam.kind);
  h.f64(jam.bandwidth_frac);
  h.vec(jam.hop_probs);
  h.u64(jam.dwell_samples);
  h.u64(jam.reaction_delay);
  h.vec(jam.tone_freqs);
  h.f64(jam.sweep_lo);
  h.f64(jam.sweep_hi);
  h.u64(jam.sweep_samples);
  h.u64(jam.duty_period);
  h.f64(jam.duty_fraction);
  h.u64(jam.sweep_steps);
  h.f64(jam.sweep_bw_frac);
  h.u64(jam.estimation_hops);
  h.u64(jam.estimation_samples);
  h.u64(jam.seed);

  h.f64(cfg.snr_db);
  h.f64(cfg.jnr_db);
  h.u64(cfg.payload_len);
  h.u64(cfg.n_packets);
  h.u64(cfg.channel_seed);
  h.u64(cfg.impairments ? 1 : 0);
  h.u64(cfg.max_delay);
  h.f32(cfg.max_cfo);

  const fault::FaultConfig& f = cfg.faults;
  h.u64(f.seed);
  h.f64(f.p_burst);
  h.f64(f.burst_power_db);
  h.f64(f.burst_len_frac);
  h.f64(f.p_fade);
  h.f64(f.fade_depth_db);
  h.f64(f.fade_len_frac);
  h.f64(f.p_drop);
  h.u64(f.drop_max);
  h.f64(f.p_dup);
  h.u64(f.dup_max);
  h.f64(f.p_clock_jump);
  h.u64(f.jump_max);
  h.u64(f.jump_offset_max);
  h.f64(f.p_cfo_step);
  h.f64(f.cfo_step_max);
  h.f64(f.p_corrupt);
  h.u64(f.corrupt_max);

  const adapt::AdaptConfig& a = cfg.adapt;
  h.u64(a.enabled ? 1 : 0);
  h.u64(a.detector.window_packets);
  h.f64(a.detector.bad_fraction);
  h.u64(a.detector.min_bad);
  h.u64(a.detector.trip_windows);
  h.u64(a.detector.clear_windows);
  h.f64(a.adapter.deweight);
  h.u64(a.adapter.deweight_cap);
  h.f64(a.adapter.min_occupancy);
  h.f64(a.adapter.recover_step);
  h.f64(a.adapter.snap_tolerance);
  h.u64(a.fallback_windows);
  h.u64(a.recovery_windows);
  h.u64(a.min_symbols_per_hop);
  h.u64(a.degraded_dwell_shift);

  h.u64(n_shards);
  return h.digest();
}

core::LinkStats ParallelLinkRunner::run(const core::SimConfig& cfg) {
  return run(cfg, nullptr);
}

core::LinkStats ParallelLinkRunner::run(const core::SimConfig& cfg,
                                        std::vector<obs::ShardTelemetry>* telemetry) {
  const std::size_t n_shards = options_.n_shards;
  if (telemetry != nullptr) {
    telemetry->clear();
    telemetry->resize(n_shards);
  }
  std::vector<std::size_t> every(n_shards);
  std::iota(every.begin(), every.end(), std::size_t{0});
  std::vector<core::LinkStats> slots(n_shards);
  return execute(nullptr, cfg, std::move(every), slots, telemetry, 0);
}

core::LinkStats ParallelLinkRunner::run_point(const std::string& point_id,
                                              const core::SimConfig& cfg) {
  BHSS_REQUIRE(journal::valid_point_id(point_id),
               "ParallelLinkRunner: point id must be non-empty, whitespace-free and at most "
               "journal::kMaxPointIdLength bytes");
  const std::size_t n_shards = options_.n_shards;
  const JournalKey key{point_id, params_hash(cfg, n_shards)};

  const bool want_obs = static_cast<bool>(telemetry_sink);
  std::vector<core::LinkStats> slots(n_shards);
  std::vector<obs::ShardTelemetry> telemetry;
  if (want_obs) telemetry.resize(n_shards);

  std::size_t quarantined = 0;
  std::vector<std::size_t> pending;
  for (std::size_t shard = 0; shard < n_shards; ++shard) {
    // Worker slice: shards owned by other workers are neither simulated
    // nor looked up — they stay default in `slots`, making this worker's
    // merge partial (see run_point's contract note in the header).
    if (!options_.partition.owns(shard)) continue;
    if (journal_ != nullptr) {
      if (const core::LinkStats* done = journal_->find_shard(key, shard)) {
        if (want_obs) {
          const std::string* blob = journal_->find_shard_obs(key, shard);
          if (blob == nullptr || !obs::deserialize_telemetry(*blob, telemetry[shard])) {
            // Journaled before telemetry was requested (or blob is
            // unreadable): re-run the shard. The replay is deterministic,
            // so the stats it re-journals are bit-identical.
            pending.push_back(shard);
            continue;
          }
        }
        slots[shard] = *done;
        continue;
      }
      if (journal_->shard_quarantined(key, shard)) {
        ++quarantined;  // lost in a previous run; stays accounted, not re-hung
        continue;
      }
    }
    pending.push_back(shard);
  }

  const core::LinkStats merged = execute(&key, cfg, std::move(pending), slots,
                                         want_obs ? &telemetry : nullptr, quarantined);
  if (want_obs) telemetry_sink(point_id, cfg, merged, telemetry);
  return merged;
}

core::LinkStats ParallelLinkRunner::execute(const JournalKey* key, const core::SimConfig& cfg,
                                            std::vector<std::size_t> pending,
                                            std::vector<core::LinkStats>& slots,
                                            std::vector<obs::ShardTelemetry>* telemetry,
                                            std::size_t quarantined) {
  std::size_t retried = 0;
  if (!pending.empty()) {
    if (interrupt_requested()) drain();
    if (options_.shard_timeout_s > 0.0) {
      execute_watchdogged(key, cfg, std::move(pending), slots, telemetry, retried, quarantined);
    } else {
      execute_pooled(key, cfg, pending, slots, telemetry);
    }
  }
  core::LinkStats merged = merge_point_results(slots, telemetry, cfg.payload_len, nullptr);
  merged.shard_timeout += quarantined;
  merged.shard_retried += retried;
  return merged;
}

void ParallelLinkRunner::journal_shard(const JournalKey* key, std::size_t shard,
                                       const core::LinkStats& stats,
                                       const obs::ShardTelemetry* telemetry) {
  if (journal_ == nullptr || key == nullptr) return;
  if (telemetry != nullptr) {
    const std::string blob = obs::serialize_telemetry(*telemetry);
    journal_->record_shard(*key, shard, stats, &blob);
  } else {
    journal_->record_shard(*key, shard, stats);
  }
}

void ParallelLinkRunner::drain() {
  if (journal_ != nullptr) journal_->flush();
  throw CampaignInterrupted();
}

void ParallelLinkRunner::execute_pooled(const JournalKey* key, const core::SimConfig& cfg,
                                        const std::vector<std::size_t>& pending,
                                        std::vector<core::LinkStats>& slots,
                                        std::vector<obs::ShardTelemetry>* telemetry) {
  std::vector<std::uint8_t> skipped(pending.size(), 0);
  pool_.parallel_for_shards(pending.size(), [&](std::size_t i) {
    if (interrupt_requested()) {  // drain: in-flight shards finish, new ones don't start
      skipped[i] = 1;
      return;
    }
    const std::size_t shard = pending[i];
    if (shard_hook) shard_hook(shard, 0);
    obs::ShardTelemetry* tele = telemetry != nullptr ? &(*telemetry)[shard] : nullptr;
    slots[shard] = run_shard(cfg, options_.n_shards, shard, tele);
    journal_shard(key, shard, slots[shard], tele);
  });
  if (std::find(skipped.begin(), skipped.end(), 1) != skipped.end()) drain();
}

void ParallelLinkRunner::execute_watchdogged(const JournalKey* key, const core::SimConfig& cfg,
                                             std::vector<std::size_t> pending,
                                             std::vector<core::LinkStats>& slots,
                                             std::vector<obs::ShardTelemetry>* telemetry,
                                             std::size_t& retried_shards,
                                             std::size_t& quarantined_shards) {
  using clock = std::chrono::steady_clock;
  const auto budget = std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double>(options_.shard_timeout_s));
  const std::size_t width = pool_.size();

  std::vector<std::uint8_t> timed_out_before(options_.n_shards, 0);

  for (std::size_t attempt = 0; attempt < options_.max_attempts && !pending.empty();
       ++attempt) {
    if (attempt > 0) {
      const double backoff =
          options_.backoff_base_s * static_cast<double>(std::size_t{1} << (attempt - 1));
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }

    std::vector<std::size_t> timed_out;
    for (std::size_t start = 0; start < pending.size(); start += width) {
      if (interrupt_requested()) drain();
      const std::size_t end = std::min(start + width, pending.size());

      // One watchdogged thread per shard in this chunk. A shard that
      // overruns its budget is abandoned (parked in the registry) — its
      // thread keeps running to completion in the background, but its
      // result is discarded so a genuinely hung shard cannot stall the
      // campaign.
      // The attempt's result travels by value through the future — a
      // timed-out attempt's telemetry dies with its abandoned thread
      // instead of racing a retry writing into a shared slot.
      struct ShardOutcome {
        core::LinkStats stats;
        obs::ShardTelemetry telemetry;
      };
      struct Flight {
        std::size_t shard = 0;
        std::thread thread;
        std::future<ShardOutcome> result;
      };
      std::vector<Flight> flights;
      flights.reserve(end - start);
      for (std::size_t i = start; i < end; ++i) {
        const std::size_t shard = pending[i];
        std::packaged_task<ShardOutcome()> task(
            [cfg, shard, attempt, hook = shard_hook, n_shards = options_.n_shards,
             want_obs = telemetry != nullptr]() {
              if (hook) hook(shard, attempt);
              ShardOutcome out;
              out.stats = run_shard(cfg, n_shards, shard, want_obs ? &out.telemetry : nullptr);
              return out;
            });
        Flight flight;
        flight.shard = shard;
        flight.result = task.get_future();
        flight.thread = std::thread(std::move(task));
        flights.push_back(std::move(flight));
      }

      const auto deadline = clock::now() + budget;
      for (Flight& flight : flights) {
        if (flight.result.wait_until(deadline) == std::future_status::ready) {
          flight.thread.join();
          ShardOutcome out = flight.result.get();
          slots[flight.shard] = out.stats;
          obs::ShardTelemetry* tele = nullptr;
          if (telemetry != nullptr) {
            tele = &(*telemetry)[flight.shard];
            *tele = std::move(out.telemetry);
          }
          journal_shard(key, flight.shard, slots[flight.shard], tele);
          if (timed_out_before[flight.shard] != 0) ++retried_shards;
        } else {
          park_abandoned(std::move(flight.thread));
          timed_out_before[flight.shard] = 1;
          timed_out.push_back(flight.shard);
        }
      }
    }
    pending = std::move(timed_out);
  }

  // Out of attempts: quarantine what is left. The merge proceeds without
  // these shards' packets; the loss is visible as `shard_timeout`.
  for (const std::size_t shard : pending) {
    slots[shard] = core::LinkStats{};
    if (journal_ != nullptr && key != nullptr) {
      journal_->record_quarantine(*key, shard, options_.max_attempts);
    }
    ++quarantined_shards;
  }
}

double ParallelLinkRunner::min_snr_for_per(const std::string& point_id,
                                           const core::SimConfig& cfg, double target_per,
                                           double lo_db, double hi_db, double tol_db) {
  BHSS_REQUIRE(!options_.partition.distributed(),
               "ParallelLinkRunner: min_snr_for_per cannot run on a worker slice — "
               "partial-shard PER would steer each worker down a different bisection "
               "path; compute bisections in the publish pass");
  std::size_t probe = 0;
  return core::min_snr_for_per(
      cfg,
      [this, &point_id, &probe](const core::SimConfig& c) {
        return run_point(point_id + "/p" + std::to_string(probe++), c).per();
      },
      target_per, lo_db, hi_db, tol_db);
}

core::LinkStats merge_point_results(const std::vector<core::LinkStats>& stats,
                                    const std::vector<obs::ShardTelemetry>* telemetry,
                                    std::size_t payload_len,
                                    obs::ShardTelemetry* merged_telemetry) {
  BHSS_REQUIRE(telemetry == nullptr || telemetry->size() == stats.size(),
               "merge_point_results: stats and telemetry must cover the same shards");
  core::LinkStats merged = core::merge_link_stats(stats, payload_len);
  if (telemetry != nullptr && merged_telemetry != nullptr) {
    *merged_telemetry = obs::merge_telemetry(*telemetry, stats.size());
  }
  return merged;
}

}  // namespace bhss::runtime
