// Closed-loop adaptation scenarios: the resilience controller (src/adapt)
// against the three non-stationary adversaries — duty-cycled bursts, a
// band-sweeping noise jammer, and the distribution-estimating jammer —
// each run twice: with the static configured hop pattern and with the
// closed loop enabled. Reports steady-state PER next to the adaptation
// taxonomy (jam episodes, fallbacks, recoveries, adapted packets) plus
// transient summaries derived from the per-shard TraceSink streams:
// adaptation latency (first window that entered DEGRADED), recovery time
// (first window back to NOMINAL) and the windowed PER split into jammed
// vs clean windows. The full per-window curves go to --trace as
// adapt_window / adapt_transition events — golden traces, bit-identical
// at any thread count and across kill-and-resume.
//
// Expected shape: for every adversary the adaptive rows sit at or below
// the static rows in PER, adaptation latency is bounded by the detector's
// window * trip debounce, and recovery completes (recoveries > 0) after
// the duty-cycle gaps / sweep hand-offs.
//
// NOTE on sharding: each shard runs its own controller over its own
// packets (that is what makes the run bit-identical at any thread
// count), so packets-per-shard must span several detection windows.
// Default: 192 packets / 16 shards = 12 packets = 3 windows per shard.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/link_simulator.hpp"

namespace {

using namespace bhss;

/// Transient summary distilled from one point's per-shard trace streams.
struct TransientSummary {
  std::size_t first_degraded_window = 0;   ///< min across shards; 0 = never
  std::size_t first_recovered_window = 0;  ///< min across shards; 0 = never
  double per_jammed_windows = 0.0;         ///< mean bad_frac of tripped windows
  double per_clean_windows = 0.0;          ///< mean bad_frac of clean windows
};

TransientSummary summarize_traces(const std::vector<obs::ShardTelemetry>& shards) {
  TransientSummary s;
  double jammed_frac = 0.0;
  double clean_frac = 0.0;
  std::size_t jammed_n = 0;
  std::size_t clean_n = 0;
  for (const obs::ShardTelemetry& shard : shards) {
    for (const obs::TraceEvent& ev : shard.trace.events()) {
      if (ev.type == obs::TraceEventType::adapt_window) {
        if (ev.flag != 0) {
          jammed_frac += ev.v0;
          ++jammed_n;
        } else {
          clean_frac += ev.v0;
          ++clean_n;
        }
      } else if (ev.type == obs::TraceEventType::adapt_transition) {
        const auto window = static_cast<std::size_t>(ev.hop);
        if (ev.flag == 1 &&
            (s.first_degraded_window == 0 || window < s.first_degraded_window)) {
          s.first_degraded_window = window;
        }
        if (ev.flag == 0 &&
            (s.first_recovered_window == 0 || window < s.first_recovered_window)) {
          s.first_recovered_window = window;
        }
      }
    }
  }
  if (jammed_n > 0) s.per_jammed_windows = jammed_frac / static_cast<double>(jammed_n);
  if (clean_n > 0) s.per_clean_windows = clean_frac / static_cast<double>(clean_n);
  return s;
}

bool stats_finite(const core::LinkStats& s) {
  return std::isfinite(s.per()) && std::isfinite(s.ser()) &&
         std::isfinite(s.throughput_bps) && std::isfinite(s.airtime_s);
}

}  // namespace

int main(int argc, char** argv) {
  // 960 packets = 60 per shard = 15 detector windows: enough steady state
  // past the learning transient for the adaptive-vs-static comparison to
  // clear the binomial noise floor. JNR 20 dB is the contested regime —
  // the static link is degraded but alive, so re-weighting has headroom
  // in both directions (30 dB would flatten everything against the rail).
  const bench::Options opt = bench::parse_options(argc, argv, 960, 20.0);
  bench::Campaign campaign(opt, "adapt_scenarios");
  bench::header("Adaptation scenarios",
                "closed-loop hop adaptation vs static patterns under "
                "non-stationary jammers");

  core::SimConfig base;
  base.system.sync = core::SyncMode::preamble;
  base.snr_db = 16.0;
  base.jnr_db = opt.jnr_db;
  base.n_packets = opt.packets;
  base.channel_seed = opt.seed;

  // Fast-acting loop sized for bench-scale runs: 4-packet windows, one
  // jammed window trips, two clean windows clear (a twitchier recovery
  // hands the estimating jammer a stable mode back too quickly).
  adapt::AdaptConfig loop;
  loop.enabled = true;
  loop.detector.window_packets = 4;
  loop.detector.bad_fraction = 0.45;
  loop.detector.min_bad = 2;
  loop.detector.trip_windows = 1;
  loop.detector.clear_windows = 2;
  loop.fallback_windows = 2;
  loop.recovery_windows = 1;

  struct Scenario {
    const char* name;
    core::JammerSpec jammer;
  };
  std::vector<Scenario> scenarios;
  {
    core::JammerSpec duty;
    duty.kind = core::JammerSpec::Kind::duty_cycle;
    duty.bandwidth_frac = 0.35;
    duty.duty_period = 8192;
    duty.duty_fraction = 0.5;
    scenarios.push_back({"duty_cycle", duty});

    core::JammerSpec sweep;
    sweep.kind = core::JammerSpec::Kind::band_sweep;
    sweep.sweep_lo = -0.2;
    sweep.sweep_hi = 0.2;
    sweep.sweep_steps = 8;
    sweep.dwell_samples = 4096;
    sweep.sweep_bw_frac = 0.08;
    scenarios.push_back({"band_sweep", sweep});

    core::JammerSpec est;
    est.kind = core::JammerSpec::Kind::estimating;
    est.estimation_hops = 32;
    scenarios.push_back({"estimating", est});
  }

  // Chain onto the campaign's telemetry sink (if any) to distill the
  // transient summaries from the same per-shard traces the --trace
  // stream publishes; setting a sink also forces telemetry collection,
  // which is what makes the summaries available without --trace.
  std::map<std::string, TransientSummary> summaries;
  auto downstream = campaign.runner().telemetry_sink;
  campaign.runner().telemetry_sink =
      [&summaries, downstream](const std::string& point_id, const core::SimConfig& cfg,
                               const core::LinkStats& merged,
                               const std::vector<obs::ShardTelemetry>& shards) {
        summaries[point_id] = summarize_traces(shards);
        if (downstream) downstream(point_id, cfg, merged, shards);
      };

  std::printf("%-10s  %-8s  %7s  %7s  %12s  %5s  %5s  %5s  %6s  %6s  %6s  %6s\n",
              "scenario", "mode", "per", "ser", "tput_bps", "eps", "fall", "recov",
              "w_jam", "pk_ad", "t_deg", "t_nom");

  bool all_finite = true;
  std::map<std::string, double> static_per;
  std::map<std::string, double> adaptive_per;
  try {
    for (const Scenario& sc : scenarios) {
      for (const bool adaptive : {false, true}) {
        core::SimConfig c = base;
        c.jammer = sc.jammer;
        if (adaptive) c.adapt = loop;

        const char* mode = adaptive ? "adaptive" : "static";
        const std::string point = std::string(sc.name) + "_" + mode;
        const bench::Stopwatch watch;
        const core::LinkStats s = campaign.run_point(point, c);
        all_finite = all_finite && stats_finite(s);
        (adaptive ? adaptive_per : static_per)[sc.name] = s.per();
        const TransientSummary& t = summaries[point];

        std::printf(
            "%-10s  %-8s  %7.4f  %7.4f  %12.1f  %5zu  %5zu  %5zu  %6zu  %6zu  %6zu  %6zu\n",
            sc.name, mode, s.per(), s.ser(), s.throughput_bps, s.adapt_jam_episodes,
            s.adapt_fallbacks, s.adapt_recoveries, s.adapt_windows_jammed,
            s.adapt_packets_adapted, t.first_degraded_window, t.first_recovered_window);

        bench::JsonLine line;
        line.add("bench", "adapt_scenarios")
            .add("scenario", sc.name)
            .add("mode", mode)
            .add("packets", s.packets)
            .add("per", s.per())
            .add("ser", s.ser())
            .add("throughput_bps", s.throughput_bps)
            .add("sync_lost", s.sync_lost)
            .add("adapt_transitions", s.adapt_transitions)
            .add("adapt_jam_episodes", s.adapt_jam_episodes)
            .add("adapt_fallbacks", s.adapt_fallbacks)
            .add("adapt_recoveries", s.adapt_recoveries)
            .add("adapt_windows_jammed", s.adapt_windows_jammed)
            .add("adapt_packets_adapted", s.adapt_packets_adapted)
            .add("first_degraded_window", t.first_degraded_window)
            .add("first_recovered_window", t.first_recovered_window)
            .add("per_jammed_windows", t.per_jammed_windows)
            .add("per_clean_windows", t.per_clean_windows);
        campaign.emit(point, std::move(line), watch.seconds());
      }
    }
  } catch (const runtime::CampaignInterrupted&) {
    std::printf("\n");
    return campaign.abandon_resumable();
  }

  std::printf("#\n# adaptive vs static PER:\n");
  for (const Scenario& sc : scenarios) {
    const double delta = static_per[sc.name] - adaptive_per[sc.name];
    std::printf("#   %-10s  static %.4f  adaptive %.4f  (%+.4f)\n", sc.name,
                static_per[sc.name], adaptive_per[sc.name], -delta);
  }

  if (!all_finite) {
    std::fprintf(stderr, "adapt_scenarios: non-finite statistic in the sweep\n");
    return 1;
  }
  std::printf("# all statistics finite across scenarios\n");
  return 0;
}
