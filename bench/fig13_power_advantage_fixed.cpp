// Figure 13: power advantage of interference filtering for fixed
// bandwidth offsets, measured on the full sample-domain link (our stand-in
// for the paper's SDR testbed). For each of the 49 (signal, jammer)
// bandwidth constellations of the seven paper bandwidths we search the
// minimum SNR that keeps packet loss below 50 % with the adaptive filter
// and with filtering disabled; the advantage is their ratio in dB,
// averaged per bandwidth ratio Bp/Bj and compared against the theoretical
// bound of §5.1.
//
// Expected shape (paper): the wide-band side (Bp/Bj < 1) follows the bound
// closely; the narrow-band side realises roughly half the bound in dB for
// 1 < Bp/Bj < 10 and > 25 dB for Bp/Bj > 10. See EXPERIMENTS.md for the
// discussion of our receiver's matched filter absorbing part of the
// wide-band gain.

#include <cstdio>
#include <map>
#include <vector>

#include "baseline/dsss_baseline.hpp"
#include "bench_util.hpp"
#include "core/link_simulator.hpp"
#include "core/theory.hpp"
#include "dsp/utils.hpp"

int main(int argc, char** argv) {
  using namespace bhss;
  const bench::Options opt = bench::parse_options(argc, argv, 10);
  bench::header("Figure 13", "power advantage vs bandwidth ratio, fixed offsets (sample-domain)");
  bench::Campaign campaign(opt, "fig13");
  std::printf("# packets per SNR point: %zu (paper: 10000); jammer at JNR %.0f dB; "
              "%zu threads, %zu shards\n",
              opt.packets, opt.jnr_db, campaign.threads(), campaign.shards());

  const core::BandwidthSet bands = core::BandwidthSet::paper();
  const double jnr_db = opt.jnr_db;

  // advantage samples grouped by Bp/Bj.
  std::map<double, std::vector<double>> by_ratio;

  try {
    for (std::size_t sig = 0; sig < bands.size(); ++sig) {
      for (std::size_t jam = 0; jam < bands.size(); ++jam) {
        core::SimConfig cfg;
        cfg.system = baseline::dsss_config(bands, sig);
        cfg.payload_len = 6;
        cfg.n_packets = opt.packets;
        cfg.channel_seed = opt.seed;
        cfg.jnr_db = jnr_db;
        cfg.jammer.kind = core::JammerSpec::Kind::fixed_bandwidth;
        cfg.jammer.bandwidth_frac = bands.bandwidth_frac(jam);

        char point[48];
        std::snprintf(point, sizeof(point), "bp%zu_bj%zu", sig, jam);
        const bench::Stopwatch watch;
        const double with_filter =
            campaign.min_snr_for_per(std::string(point) + "/filter", cfg);
        core::SimConfig off = cfg;
        off.system.filter_policy = core::FilterPolicy::off;
        const double without_filter =
            campaign.min_snr_for_per(std::string(point) + "/nofilter", off);

        const double ratio = bands.bandwidth_frac(sig) / bands.bandwidth_frac(jam);
        by_ratio[ratio].push_back(without_filter - with_filter);
        std::fprintf(stderr, "  Bp=%5.3f MHz Bj=%5.3f MHz: adv %.1f dB\n",
                     bands.bandwidth_hz(sig) / 1e6, bands.bandwidth_hz(jam) / 1e6,
                     without_filter - with_filter);
        campaign.emit(point,
                      bench::JsonLine()
                          .add("figure", "fig13")
                          .add("bp_mhz", bands.bandwidth_hz(sig) / 1e6)
                          .add("bj_mhz", bands.bandwidth_hz(jam) / 1e6)
                          .add("bp_over_bj", ratio)
                          .add("min_snr_filter_db", with_filter)
                          .add("min_snr_nofilter_db", without_filter)
                          .add("advantage_db", without_filter - with_filter)
                          .add("packets", opt.packets)
                          .add("shards", campaign.shards()),
                      watch.seconds());
      }
    }
  } catch (const runtime::CampaignInterrupted&) {
    return campaign.abandon_resumable();
  }

  std::printf("\n%10s  %10s  %14s  %14s\n", "Bp/Bj", "n", "advantage[dB]", "bound[dB]");
  for (const auto& [ratio, samples] : by_ratio) {
    double mean = 0.0;
    for (double v : samples) mean += v;
    mean /= static_cast<double>(samples.size());
    const double bound = dsp::linear_to_db(core::theory::snr_improvement_bound(
        ratio, dsp::db_to_linear(jnr_db), 1.0));
    std::printf("%10.4f  %10zu  %14.1f  %14.1f\n", ratio, samples.size(), mean, bound);
  }
  return 0;
}
