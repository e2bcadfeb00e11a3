// Fault campaign: graceful-degradation curve of the BHSS receiver under
// the deterministic transient-fault matrix (jammer power bursts, deep
// fades, sample drops/duplications, clock jumps, CFO steps, NaN/Inf
// corruption). Sweeps a uniform per-packet fault rate and reports, for
// each intensity, the full failure taxonomy next to PER/throughput —
// once with the bounded re-acquisition chain enabled and once in
// single-shot mode (max_sync_attempts = 1), so the value of the
// recovery machinery is measured, not asserted.
//
// Expected shape: PER degrades smoothly with intensity (no cliff), the
// recovery rows sit at or below the single-shot rows, and every statistic
// stays finite at every intensity — a NaN anywhere in this table is a
// regression in the scrubbing/fallback chain.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/link_simulator.hpp"

namespace {

bool stats_finite(const bhss::core::LinkStats& s) {
  return std::isfinite(s.per()) && std::isfinite(s.ser()) &&
         std::isfinite(s.throughput_bps) && std::isfinite(s.airtime_s);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bhss;
  const bench::Options opt = bench::parse_options(argc, argv, 48);
  bench::Campaign campaign(opt, "fault_campaign");
  bench::header("Fault campaign",
                "failure taxonomy and PER vs per-packet fault intensity");

  // Thermal channel only: the sweep must attribute every lost frame to the
  // fault matrix, not to a jammer the taxonomy cannot separate out. The
  // jammer benches cover the adversarial axis.
  core::SimConfig cfg;
  cfg.system.sync = core::SyncMode::preamble;
  cfg.snr_db = 18.0;
  cfg.n_packets = opt.packets;
  cfg.channel_seed = opt.seed;

  const std::vector<double> intensities = {0.0, 0.02, 0.05, 0.1, 0.2, 0.4};

  std::printf("%9s  %-11s  %7s  %7s  %12s  %6s  %6s  %6s  %6s  %6s  %6s  %6s\n",
              "intensity", "mode", "per", "ser", "tput_bps", "sylost", "reacq",
              "fallbk", "scrub", "inject", "sh_to", "sh_re");

  bool all_finite = true;
  try {
    for (const double p : intensities) {
      for (const bool recovery : {true, false}) {
        core::SimConfig c = cfg;
        c.faults.set_uniform_rate(p);
        if (!recovery) c.system.max_sync_attempts = 1;

        const char* mode = recovery ? "recovery" : "single_shot";
        char point[48];
        std::snprintf(point, sizeof(point), "i%g_%s", p, mode);
        const bench::Stopwatch watch;
        const core::LinkStats s = campaign.run_point(point, c);
        all_finite = all_finite && stats_finite(s);

        std::printf("%9.2f  %-11s  %7.4f  %7.4f  %12.1f  %6zu  %6zu  %6zu  %6zu  %6zu  %6zu  %6zu\n",
                    p, mode, s.per(), s.ser(), s.throughput_bps, s.sync_lost,
                    s.reacquired, s.filter_fallback, s.corrupt_input_rejected,
                    s.faults_injected, s.shard_timeout, s.shard_retried);

        bench::JsonLine line;
        line.add("bench", "fault_campaign")
            .add("intensity", p)
            .add("mode", mode)
            .add("packets", s.packets)
            .add("per", s.per())
            .add("ser", s.ser())
            .add("throughput_bps", s.throughput_bps)
            .add("detected", s.detected)
            .add("sync_lost", s.sync_lost)
            .add("reacquired", s.reacquired)
            .add("filter_fallback", s.filter_fallback)
            .add("corrupt_input_rejected", s.corrupt_input_rejected)
            .add("faults_injected", s.faults_injected)
            .add("shard_timeout", s.shard_timeout)
            .add("shard_retried", s.shard_retried);
        campaign.emit(point, std::move(line), watch.seconds());
      }
    }
  } catch (const runtime::CampaignInterrupted&) {
    std::printf("\n");
    return campaign.abandon_resumable();
  }

  if (!all_finite) {
    std::fprintf(stderr, "fault_campaign: non-finite statistic in the sweep\n");
    return 1;
  }
  std::printf("# all statistics finite across the fault matrix\n");
  return 0;
}
