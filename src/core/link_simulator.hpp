#pragma once

/// @file link_simulator.hpp
/// End-to-end link experiments: transmitter -> (jammer + AWGN channel) ->
/// receiver, with packet-loss statistics and the paper's "power
/// advantage" measurement procedure (§6.3: the ratio of minimum SNRs
/// needed to stay below 50 % packet loss).

#include <cstdint>
#include <functional>
#include <vector>

#include "adapt/resilience_controller.hpp"
#include "core/link_stats.hpp"
#include "core/receiver.hpp"
#include "core/system_config.hpp"
#include "core/transmitter.hpp"
#include "fault/fault_plan.hpp"
#include "obs/link_obs.hpp"

namespace bhss::core {

/// Which adversary the link faces.
struct JammerSpec {
  enum class Kind {
    none,             ///< thermal noise only
    fixed_bandwidth,  ///< constant-bandwidth Gaussian noise (§6.4.2)
    hopping,          ///< bandwidth-hopping jammer (§6.4.3)
    reactive,         ///< matches the observed bandwidth after a delay (§2)
    tone,             ///< CW tone(s) — the classic excision target [3]-[7]
    swept,            ///< carrier sweeping across the band
    duty_cycle,       ///< pulsed bursts, unit average power
    band_sweep,       ///< shaped-noise band stepping across the channel
    estimating,       ///< learns the hop distribution, jams the mode
  };

  Kind kind = Kind::none;
  double bandwidth_frac = 0.5;       ///< fixed_bandwidth/duty_cycle: fraction of Rs
  std::vector<double> hop_probs;     ///< hopping: distribution over the
                                     ///< system's bandwidth set
  std::size_t dwell_samples = 8192;  ///< hopping: samples per jammer hop
  std::size_t reaction_delay = 4096; ///< reactive: tau in samples
  std::vector<double> tone_freqs = {0.01};  ///< tone: cycles/sample
  double sweep_lo = -0.25;           ///< swept/band_sweep: band edges [cycles/sample]
  double sweep_hi = 0.25;
  std::size_t sweep_samples = 65536; ///< swept: samples per full sweep
  std::size_t duty_period = 16384;   ///< duty_cycle: samples per on/off period
  double duty_fraction = 0.5;        ///< duty_cycle: on-fraction, in (0, 1]
  std::size_t sweep_steps = 8;       ///< band_sweep: dwell positions per sweep
  double sweep_bw_frac = 0.05;       ///< band_sweep: occupied bandwidth per dwell
  std::size_t estimation_hops = 64;  ///< estimating: observations before targeting
  std::size_t estimation_samples = 0;  ///< reactive: sensing latency per hop
                                       ///< (0 = ideal instantaneous sensing)
  std::uint64_t seed = 99;           ///< jammer-private randomness
};

/// One experiment configuration.
struct SimConfig {
  SystemConfig system;
  JammerSpec jammer;
  double snr_db = 20.0;           ///< received signal power / noise power
  double jnr_db = 25.0;           ///< received jammer power / noise power
  std::size_t payload_len = 8;    ///< payload bytes per packet
  std::size_t n_packets = 50;     ///< packets per data point (paper: 10000)
  std::uint64_t channel_seed = 7;
  bool impairments = true;        ///< random delay/phase/CFO per packet
  std::size_t max_delay = 192;    ///< arrival delay range [samples]
  float max_cfo = 2e-4F;          ///< |CFO| bound [rad/sample]

  /// Transient fault matrix applied to every packet capture between the
  /// channel and the receiver. Defaults to all-off. The per-packet fault
  /// sequence is a pure function of (faults.seed, global packet index),
  /// so sharding and thread count cannot change it.
  fault::FaultConfig faults{};

  /// Closed-loop resilience (src/adapt). Off by default. When enabled,
  /// each shard runs its own ResilienceController fed strictly in packet
  /// order, so the adapted stream stays a pure function of
  /// (SimConfig, shard boundaries) — bit-identical at any thread count.
  /// Note the per-shard scope: the detector only sees its own shard's
  /// packets, so detection windows must be small relative to packets per
  /// shard for adaptation to engage in sharded runs.
  adapt::AdaptConfig adapt{};
};

/// Merge shard statistics under the shared merge-order contract:
///
///   The merge is a LEFT FOLD IN ASCENDING SHARD ORDER over a vector
///   whose length equals the run's shard count — shard i's contribution
///   sits at index i, and quarantined shards contribute a
///   default-constructed element at their index (never a shorter
///   vector). `obs::merge_telemetry` merges per-shard telemetry under
///   the *same* contract, and `runtime::merge_point_results`
///   BHSS_REQUIREs that both vectors agree on the length, so the two
///   merges cannot silently diverge.
///
/// Every non-derived row of `kLinkStatsFields` is summed; `throughput_bps`
/// is recomputed from the merged totals. Deterministic for a fixed shard
/// sequence.
[[nodiscard]] LinkStats merge_link_stats(const std::vector<LinkStats>& shards,
                                         std::size_t payload_len);

/// Seed tuple for one simulation shard. `run_link` derives the default
/// tuple from `SimConfig`; the parallel runner derives one per shard via
/// `SharedRandom::split_seed` so shard streams never overlap.
struct ShardSeeds {
  std::uint64_t channel = 0;      ///< AWGN source
  std::uint64_t impairments = 0;  ///< per-packet delay/phase/CFO draws
  std::uint64_t jammer = 0;       ///< jammer-private randomness
};

/// Run packets [first_packet, first_packet + n_packets) through the link
/// with an explicit seed tuple. Packet indices are global: the payload and
/// the shared-randomness frame counter depend only on the index, so a
/// sharded run transmits exactly the same frames as a sequential one.
/// `o` (optional) is this shard's telemetry — per-packet counters, hop
/// decision traces and stage timings; the simulation itself is
/// bit-identical with or without it.
[[nodiscard]] LinkStats run_link_shard(const SimConfig& cfg, std::size_t first_packet,
                                       std::size_t n_packets, const ShardSeeds& seeds,
                                       const obs::LinkObs& o = {});

/// Run `cfg.n_packets` packets through the link.
[[nodiscard]] LinkStats run_link(const SimConfig& cfg);

/// Packet-error-rate oracle for the bisection below: maps a SimConfig to
/// its measured PER. The default evaluates `run_link(cfg).per()`
/// sequentially; `runtime::ParallelLinkRunner` plugs itself in here so the
/// bisection inherits the parallel speedup.
using PerEvaluator = std::function<double(const SimConfig&)>;

/// Paper §6.3 measurement: the minimum SNR (dB) at which the packet loss
/// stays below `target_per`, found by bisection over [lo_db, hi_db].
/// Returns hi_db when even the highest SNR cannot reach the target.
[[nodiscard]] double min_snr_for_per(const SimConfig& cfg, double target_per = 0.5,
                                     double lo_db = -10.0, double hi_db = 45.0,
                                     double tol_db = 0.5);

/// Same bisection with a custom PER oracle (parallel runner, cached or
/// analytic models, ...).
[[nodiscard]] double min_snr_for_per(const SimConfig& cfg, const PerEvaluator& per_of,
                                     double target_per = 0.5, double lo_db = -10.0,
                                     double hi_db = 45.0, double tol_db = 0.5);

/// Power advantage of configuration `a` over configuration `b` in dB:
/// min-SNR(b) - min-SNR(a). Positive = `a` tolerates that much more
/// jamming for the same error performance.
[[nodiscard]] double power_advantage_db(const SimConfig& a, const SimConfig& b,
                                        double target_per = 0.5);

}  // namespace bhss::core
