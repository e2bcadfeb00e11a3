// Figure 14: power advantage of BHSS (hopping per the linear /
// exponential / parabolic patterns) over the fixed-bandwidth spread
// spectrum reference, against jammers of fixed bandwidth. As in the paper
// (§6.4.2), the reference receiver runs the same code base with hopping
// disabled at the maximum bandwidth (10 MHz) and faces a matched 10 MHz
// jammer; the power advantage is the difference of the minimum SNRs that
// keep packet loss below 50 %.
//
// Expected shape (paper): advantages between ~2 and ~26 dB; largest for
// the narrowest jammer (0.156 MHz) under every pattern; the minimum at a
// pattern-dependent jammer bandwidth (5 MHz for linear, 0.625 MHz for
// parabolic, 10 MHz for exponential).

#include <cstdio>
#include <vector>

#include "baseline/dsss_baseline.hpp"
#include "bench_util.hpp"
#include "core/link_simulator.hpp"

int main(int argc, char** argv) {
  using namespace bhss;
  const bench::Options opt = bench::parse_options(argc, argv, 10);
  bench::header("Figure 14", "power advantage vs jammer bandwidth for the 3 hop patterns");
  bench::Campaign campaign(opt, "fig14");
  std::printf("# packets per SNR point: %zu (paper: 10000); jammer at JNR %.0f dB; "
              "%zu threads, %zu shards\n",
              opt.packets, opt.jnr_db, campaign.threads(), campaign.shards());

  const core::BandwidthSet bands = core::BandwidthSet::paper();
  const double jnr_db = opt.jnr_db;

  // Reference: fixed 10 MHz signal, matched 10 MHz jammer.
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

  std::vector<std::vector<double>> advantage(bands.size());
  double ref_min_snr = 0.0;
  try {
    ref_min_snr = campaign.min_snr_for_per("reference", reference);
    std::printf("# fixed-bandwidth reference min SNR: %.1f dB\n\n", ref_min_snr);

    std::printf("%-16s", "JammerBW[MHz]");
    for (auto p : patterns) std::printf("  %12s", to_string(p).c_str());
    std::printf("\n");

    for (std::size_t jam = 0; jam < bands.size(); ++jam) {
      std::printf("%-16.4f", bands.bandwidth_hz(jam) / 1e6);
      for (auto type : patterns) {
        core::SimConfig cfg;
        cfg.system.pattern = core::HopPattern::make(type, bands);
        cfg.system.hopping = true;
        // One bandwidth per packet: the paper's per-frame CRC accounting
        // only yields its measured advantages when a packet rides a single
        // hop (otherwise any frame touching the jammer-matched level is
        // lost and the 50%-PER threshold collapses to the matched case) —
        // see EXPERIMENTS.md. Sub-packet hopping is exercised against the
        // reactive jammer in ablation_hop_dwell.
        cfg.system.symbols_per_hop = 1024;
        cfg.payload_len = 6;
        cfg.n_packets = opt.packets;
        cfg.channel_seed = opt.seed;
        cfg.jnr_db = jnr_db;
        cfg.jammer.kind = core::JammerSpec::Kind::fixed_bandwidth;
        cfg.jammer.bandwidth_frac = bands.bandwidth_frac(jam);
        char point[48];
        std::snprintf(point, sizeof(point), "adv_bj%zu_%s", jam, to_string(type).c_str());
        const bench::Stopwatch watch;
        const double min_snr = campaign.min_snr_for_per(point, cfg);
        const double adv = ref_min_snr - min_snr;
        advantage[jam].push_back(adv);
        std::printf("  %12.1f", adv);
        std::fflush(stdout);
        campaign.emit(point,
                      bench::JsonLine()
                          .add("figure", "fig14")
                          .add("section", "advantage")
                          .add("pattern", to_string(type).c_str())
                          .add("bj_mhz", bands.bandwidth_hz(jam) / 1e6)
                          .add("min_snr_db", min_snr)
                          .add("advantage_db", adv)
                          .add("packets", opt.packets)
                          .add("shards", campaign.shards()),
                      watch.seconds());
      }
      std::printf("\n");
    }

    std::printf("\n# paper: advantages between 2 and 26 dB depending on pattern and\n"
                "# jammer bandwidth; highest advantage at 0.156 MHz for all patterns.\n");

    // Complementary view that does not depend on resolving the knife-edge
    // 50 % threshold (see EXPERIMENTS.md): fraction of frames delivered at
    // a fixed SNR 12 dB below the reference threshold. The reference link
    // delivers nothing here; every positive entry is pure hopping gain.
    const double probe_snr = ref_min_snr - 12.0;
    std::printf("\n# delivered fraction at SNR %.1f dB (reference link: ~0):\n", probe_snr);
    std::printf("%-16s", "JammerBW[MHz]");
    for (auto p : patterns) std::printf("  %12s", to_string(p).c_str());
    std::printf("\n");
    for (std::size_t jam = 0; jam < bands.size(); ++jam) {
      std::printf("%-16.4f", bands.bandwidth_hz(jam) / 1e6);
      for (auto type : patterns) {
        core::SimConfig cfg;
        cfg.system.pattern = core::HopPattern::make(type, bands);
        cfg.system.hopping = true;
        cfg.system.symbols_per_hop = 1024;
        cfg.payload_len = 6;
        cfg.n_packets = opt.packets;
        cfg.channel_seed = opt.seed;
        cfg.snr_db = probe_snr;
        cfg.jnr_db = jnr_db;
        cfg.jammer.kind = core::JammerSpec::Kind::fixed_bandwidth;
        cfg.jammer.bandwidth_frac = bands.bandwidth_frac(jam);
        char point[48];
        std::snprintf(point, sizeof(point), "del_bj%zu_%s", jam, to_string(type).c_str());
        const bench::Stopwatch watch;
        const core::LinkStats s = campaign.run_point(point, cfg);
        std::printf("  %12.2f", 1.0 - s.per());
        std::fflush(stdout);
        campaign.emit(point,
                      bench::JsonLine()
                          .add("figure", "fig14")
                          .add("section", "delivered")
                          .add("pattern", to_string(type).c_str())
                          .add("bj_mhz", bands.bandwidth_hz(jam) / 1e6)
                          .add("snr_db", probe_snr)
                          .add("per", s.per())
                          .add("ser", s.ser())
                          .add("throughput_bps", s.throughput_bps)
                          .add("packets", opt.packets)
                          .add("shards", campaign.shards()),
                      watch.seconds());
      }
      std::printf("\n");
    }
  } catch (const runtime::CampaignInterrupted&) {
    std::printf("\n");
    return campaign.abandon_resumable();
  }
  return 0;
}
