// Ablation: hop dwell (symbols per hop) versus the reactive jammer's
// reaction time tau (§3: "the signal bandwidth must be adapted quickly ...
// to resist modern reactive jammers with reaction delays below packet
// transmission times"). SER as a function of both knobs; hopping only
// helps while the dwell stays below tau.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/link_simulator.hpp"

int main(int argc, char** argv) {
  using namespace bhss;
  const bench::Options opt = bench::parse_options(argc, argv, 15);
  bench::header("Ablation", "hop dwell vs reactive jammer reaction time (SER)");
  bench::Campaign campaign(opt, "ablation_hop_dwell");

  const core::BandwidthSet bands = core::BandwidthSet::paper();
  const std::vector<std::size_t> dwells = {1, 2, 4, 8, 16};
  const std::vector<std::size_t> taus = {512, 2048, 8192, 32768};

  std::printf("# linear hopping, JNR 30 dB, SNR 15 dB, %zu packets per cell\n", opt.packets);
  std::printf("%-18s", "dwell[sym] \\ tau");
  for (std::size_t tau : taus) std::printf("  %10zu", tau);
  std::printf("\n");

  try {
    for (std::size_t dwell : dwells) {
      std::printf("%-18zu", dwell);
      for (std::size_t tau : taus) {
        core::SimConfig cfg;
        cfg.system.pattern = core::HopPattern::make(core::HopPatternType::linear, bands);
        cfg.system.hopping = true;
        cfg.system.symbols_per_hop = dwell;
        cfg.payload_len = 6;
        cfg.n_packets = opt.packets;
        cfg.channel_seed = opt.seed;
        cfg.snr_db = 15.0;
        cfg.jnr_db = 30.0;
        cfg.jammer.kind = core::JammerSpec::Kind::reactive;
        cfg.jammer.reaction_delay = tau;
        char point[48];
        std::snprintf(point, sizeof(point), "dwell%zu_tau%zu", dwell, tau);
        const bench::Stopwatch watch;
        const core::LinkStats s = campaign.run_point(point, cfg);
        std::printf("  %10.3f", s.ser());
        std::fflush(stdout);
        campaign.emit(point,
                      bench::JsonLine()
                          .add("figure", "ablation_hop_dwell")
                          .add("dwell_symbols", dwell)
                          .add("tau_samples", tau)
                          .add("ser", s.ser())
                          .add("per", s.per())
                          .add("packets", s.packets)
                          .add("shards", campaign.shards()),
                      watch.seconds());
      }
      std::printf("\n");
    }
  } catch (const runtime::CampaignInterrupted&) {
    std::printf("\n");
    return campaign.abandon_resumable();
  }

  std::printf("\n# expected: SER shrinks along each row — a slower jammer spends a\n"
              "# larger fraction of every hop mismatched. The symbols-per-hop knob\n"
              "# matters less than tau here because a 'symbol' dwell lasts 64x\n"
              "# longer at the narrowest bandwidth than at the widest, so the\n"
              "# narrow hops dominate the matched-time budget at every setting.\n");
  return 0;
}
