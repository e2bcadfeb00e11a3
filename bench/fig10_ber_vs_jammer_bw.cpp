// Figure 10: BER of BHSS vs the jammer bandwidth Bj/max(Bp) for different
// signal-to-jamming ratios (-10, -15, -20 dB). Hop range 100, L = 20 dB.
// Expected shape: each SJR curve has a BER maximum at an intermediate
// jammer bandwidth ("a jammer will maximize the bit error rate by
// selecting a jamming bandwidth which is matched to the SJR"), with the
// peak moving as the SJR changes.
//
// The paper does not state the Eb/N0 at which Fig. 10 is evaluated; we use
// 15 dB (the knee of Fig. 9).
//
// Alongside the closed-form sweep, a small sample-domain Monte-Carlo
// validation sweep runs the full link against a fixed-bandwidth jammer at
// a handful of Bj points. It exists so this figure exercises the whole
// receiver chain — and so `--trace`/`--metrics` have per-hop filter
// decisions and counters to capture (see EXPERIMENTS.md).

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/link_simulator.hpp"
#include "core/theory.hpp"
#include "dsp/utils.hpp"

int main(int argc, char** argv) {
  using namespace bhss;
  using core::theory::BhssModel;
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::Campaign campaign(opt, "fig10");
  bench::header("Figure 10", "BER vs jammer bandwidth for SJR -10/-15/-20 dB (Eb/N0 15 dB)");

  const double ebno = dsp::db_to_linear(15.0);
  const std::vector<double> sjr_db = {-10.0, -15.0, -20.0};

  std::printf("%14s", "Bj/max(Bp)");
  for (double s : sjr_db) std::printf("  SJR=%-4.0fdB   ", s);
  std::printf("\n");

  std::vector<double> peak_bw(sjr_db.size(), 0.0);
  std::vector<double> peak_ber(sjr_db.size(), 0.0);
  std::size_t step = 0;
  for (double e = -2.0; e <= 0.0 + 1e-9; e += 0.1, ++step) {
    const double bj = std::pow(10.0, e);
    std::printf("%14.4f", bj);
    for (std::size_t i = 0; i < sjr_db.size(); ++i) {
      const bench::Stopwatch watch;
      const BhssModel model = BhssModel::log_uniform(100.0, 7, dsp::db_to_linear(20.0),
                                                     dsp::db_to_linear(-sjr_db[i]));
      const double ber = model.ber_fixed_jammer(bj, ebno);
      if (ber > peak_ber[i]) {
        peak_ber[i] = ber;
        peak_bw[i] = bj;
      }
      std::printf("  %12.3e", ber);
      char point[32];
      std::snprintf(point, sizeof(point), "bw%zu_sjr%zu", step, i);
      campaign.emit(point,
                    bench::JsonLine()
                        .add("figure", "fig10")
                        .add("bj_over_max_bp", bj)
                        .add("sjr_db", sjr_db[i])
                        .add("ber", ber),
                    watch.seconds());
    }
    std::printf("\n");
  }

  // Sample-domain validation: the full link vs a fixed-bandwidth jammer.
  const std::vector<double> mc_bw = {0.05, 0.1, 0.2, 0.5, 1.0};
  std::printf("\n# Monte-Carlo validation (%zu packets/point, SNR 15 dB, JNR %.0f dB):\n",
              opt.packets, opt.jnr_db);
  std::printf("%14s  %8s  %8s  %8s\n", "Bj/max(Bp)", "ser", "per", "detected");
  try {
    for (std::size_t i = 0; i < mc_bw.size(); ++i) {
      core::SimConfig cfg;
      cfg.system.sync = core::SyncMode::preamble;
      cfg.snr_db = 15.0;
      cfg.jnr_db = opt.jnr_db;
      cfg.n_packets = opt.packets;
      cfg.channel_seed = opt.seed;
      cfg.jammer.kind = core::JammerSpec::Kind::fixed_bandwidth;
      cfg.jammer.bandwidth_frac = mc_bw[i];

      char point[32];
      std::snprintf(point, sizeof(point), "mc_bw%zu", i);
      const bench::Stopwatch watch;
      const core::LinkStats s = campaign.run_point(point, cfg);
      std::printf("%14.2f  %8.4f  %8.4f  %8zu\n", mc_bw[i], s.ser(), s.per(), s.detected);

      bench::JsonLine line;
      line.add("figure", "fig10")
          .add("kind", "monte_carlo")
          .add("bj_over_max_bp", mc_bw[i])
          .add("packets", s.packets)
          .add("ser", s.ser())
          .add("per", s.per())
          .add("detected", s.detected)
          .add("filter_fallback", s.filter_fallback);
      campaign.emit(point, std::move(line), watch.seconds());
    }
  } catch (const runtime::CampaignInterrupted&) {
    std::printf("\n");
    return campaign.abandon_resumable();
  }

  std::printf("\n# peak (worst-case for the link) jammer bandwidth per SJR:\n");
  for (std::size_t i = 0; i < sjr_db.size(); ++i) {
    std::printf("#   SJR %+.0f dB: Bj/max(Bp) = %.3f, BER = %.3e\n", sjr_db[i], peak_bw[i],
                peak_ber[i]);
  }
  std::printf("# paper: 'the bit error curves for the different SJR values all exhibit\n"
              "# a maximum at different jammer bandwidths'\n");
  return 0;
}
