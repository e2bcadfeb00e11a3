// Table 2: power advantage [dB] when both the BHSS signal and the jammer
// hop their bandwidths randomly — all nine combinations of the linear /
// exponential / parabolic patterns. Reference as in Fig. 14: the fixed
// 10 MHz receiver against a matched 10 MHz jammer.
//
// Expected shape (paper):
//             jammer:  linear  exponential  parabolic
//   signal linear        9.6      6.5         12.5
//   signal exponential  15.7      3.3         15.2
//   signal parabolic    12.2     11.4         13.7
// i.e. exponential-vs-exponential is the worst cell, the parabolic signal
// pattern has the best worst case (11.4 dB), and the overall average sits
// near 11.4 dB.

#include <algorithm>
#include <cstdio>

#include "baseline/dsss_baseline.hpp"
#include "bench_util.hpp"
#include "core/link_simulator.hpp"

int main(int argc, char** argv) {
  using namespace bhss;
  const bench::Options opt = bench::parse_options(argc, argv, 10);
  bench::header("Table 2", "power advantage [dB]: signal pattern x jammer pattern");
  bench::Campaign campaign(opt, "table2");
  std::printf("# packets per SNR point: %zu (paper: 10000); jammer at JNR %.0f dB; "
              "%zu threads, %zu shards\n",
              opt.packets, opt.jnr_db, campaign.threads(), campaign.shards());

  const core::BandwidthSet bands = core::BandwidthSet::paper();
  const double jnr_db = opt.jnr_db;

  core::SimConfig reference;
  reference.system = baseline::dsss_config(bands, bands.widest_index());
  reference.payload_len = 6;
  reference.n_packets = opt.packets;
  reference.channel_seed = opt.seed;
  reference.jnr_db = jnr_db;
  reference.jammer.kind = core::JammerSpec::Kind::fixed_bandwidth;
  reference.jammer.bandwidth_frac = bands.bandwidth_frac(bands.widest_index());

  const core::HopPatternType patterns[] = {core::HopPatternType::linear,
                                           core::HopPatternType::exponential,
                                           core::HopPatternType::parabolic};

  double best_worst = -1e9;
  std::string best_pattern;
  try {
    const double ref_min_snr = campaign.min_snr_for_per("reference", reference);
    std::printf("# fixed-bandwidth reference min SNR: %.1f dB\n\n", ref_min_snr);

    std::printf("%-18s", "signal \\ jammer");
    for (auto j : patterns) std::printf("  %12s", to_string(j).c_str());
    std::printf("  %12s\n", "worst case");

    for (auto sig : patterns) {
      std::printf("%-18s", to_string(sig).c_str());
      double worst = 1e9;
      for (auto jam : patterns) {
        core::SimConfig cfg;
        cfg.system.pattern = core::HopPattern::make(sig, bands);
        cfg.system.hopping = true;
        cfg.system.symbols_per_hop = 1024;  // one bandwidth per packet, see Fig. 14 bench
        cfg.payload_len = 6;
        cfg.n_packets = opt.packets;
        cfg.channel_seed = opt.seed;
        cfg.jnr_db = jnr_db;
        cfg.jammer.kind = core::JammerSpec::Kind::hopping;
        cfg.jammer.hop_probs = core::HopPattern::make(jam, bands).probabilities();
        cfg.jammer.dwell_samples = 4096;
        char point[48];
        std::snprintf(point, sizeof(point), "sig-%s_jam-%s", to_string(sig).c_str(),
                      to_string(jam).c_str());
        const bench::Stopwatch watch;
        const double adv = ref_min_snr - campaign.min_snr_for_per(point, cfg);
        worst = std::min(worst, adv);
        std::printf("  %12.1f", adv);
        std::fflush(stdout);
        campaign.emit(point,
                      bench::JsonLine()
                          .add("figure", "table2")
                          .add("signal_pattern", to_string(sig).c_str())
                          .add("jammer_pattern", to_string(jam).c_str())
                          .add("advantage_db", adv)
                          .add("packets", opt.packets)
                          .add("shards", campaign.shards()),
                      watch.seconds());
      }
      std::printf("  %12.1f\n", worst);
      if (worst > best_worst) {
        best_worst = worst;
        best_pattern = to_string(sig);
      }
    }
  } catch (const runtime::CampaignInterrupted&) {
    std::printf("\n");
    return campaign.abandon_resumable();
  }

  std::printf("\n# most robust signal pattern (max-min): %s, worst case %.1f dB\n",
              best_pattern.c_str(), best_worst);
  std::printf("# paper: parabolic is most robust with a worst case of 11.4 dB\n");
  return 0;
}
