#include "runtime/parallel_link_runner.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <csignal>
#include <numeric>

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
/// `core::run_link_shard`. Empty shards return default stats.
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
    : options_(options),
      pool_(std::min(options.n_threads == 0 ? ThreadPool::hardware_threads() : options.n_threads,
                     options.n_shards)),
      journal_(journal) {
  BHSS_REQUIRE(options_.n_shards >= 1, "ParallelLinkRunner: n_shards must be >= 1");
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

// Every field of SimConfig (and of everything it embeds) that influences
// the simulated statistics goes into the fingerprint, in declaration
// order. When SimConfig grows a field, add it here — a missed field means
// resume can silently reuse work computed under different parameters
// (CampaignRunner.ParamsHashCoversConfigAndShardCount counts the fields).
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
  h.enm(logic.psd_method);
  h.enm(logic.excision_style);
  h.u64(sys.max_sync_attempts);

  const core::JammerSpec& jam = cfg.jammer;
  h.enm(jam.kind);
  h.f64(jam.bandwidth_frac);
  h.vec(jam.hop_probs);
  h.u64(jam.dwell_samples);
  h.u64(jam.reaction_delay);
  h.u64(jam.duty_period);
  h.f64(jam.duty_fraction);
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
  h.f64(f.p_fade);
  h.f64(f.p_drop);
  h.f64(f.p_dup);
  h.f64(f.p_clock_jump);
  h.f64(f.p_cfo_step);
  h.f64(f.p_corrupt);

  const adapt::AdaptConfig& a = cfg.adapt;
  h.u64(a.enabled ? 1 : 0);
  h.u64(a.detector.window_packets);
  h.f64(a.detector.bad_fraction);
  h.u64(a.detector.min_bad);
  h.u64(a.detector.trip_windows);
  h.u64(a.detector.clear_windows);
  h.u64(a.fallback_windows);
  h.u64(a.recovery_windows);

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
  return execute(nullptr, cfg, every, slots, telemetry);
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
    }
    pending.push_back(shard);
  }

  const core::LinkStats merged =
      execute(&key, cfg, pending, slots, want_obs ? &telemetry : nullptr);
  if (want_obs) telemetry_sink(point_id, cfg, merged, telemetry);
  return merged;
}

core::LinkStats ParallelLinkRunner::execute(const JournalKey* key, const core::SimConfig& cfg,
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
    if (shard_hook) shard_hook(shard);
    obs::ShardTelemetry* tele = telemetry != nullptr ? &(*telemetry)[shard] : nullptr;
    slots[shard] = run_shard(cfg, options_.n_shards, shard, tele);
    journal_shard(key, shard, slots[shard], tele);
  });
  if (std::find(skipped.begin(), skipped.end(), 1) != skipped.end()) drain();
  return merge_point_results(slots, telemetry, cfg.payload_len);
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

double ParallelLinkRunner::min_snr_for_per(const std::string& point_id,
                                           const core::SimConfig& cfg, double target_per,
                                           double lo_db, double hi_db, double tol_db) {
  BHSS_REQUIRE(!options_.partition.distributed(),
               "ParallelLinkRunner: min_snr_for_per cannot run on a worker slice — "
               "partial-shard PER would steer each worker down a different bisection "
               "path; compute bisections in the publish pass");
  std::size_t probe = 0;
  auto per_at = [&](double snr_db) {
    core::SimConfig c = cfg;
    c.snr_db = snr_db;
    return run_point(point_id + "/p" + std::to_string(probe++), c).per();
  };

  if (per_at(hi_db) > target_per) return hi_db;  // unreachable even at max power
  if (per_at(lo_db) <= target_per) return lo_db;

  double lo = lo_db;
  double hi = hi_db;
  while (hi - lo > tol_db) {
    const double mid = 0.5 * (lo + hi);
    if (per_at(mid) <= target_per) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

core::LinkStats merge_point_results(const std::vector<core::LinkStats>& stats,
                                    const std::vector<obs::ShardTelemetry>* telemetry,
                                    std::size_t payload_len) {
  BHSS_REQUIRE(telemetry == nullptr || telemetry->size() == stats.size(),
               "merge_point_results: stats and telemetry must cover the same shards");
  return core::merge_link_stats(stats, payload_len);
}

}  // namespace bhss::runtime
