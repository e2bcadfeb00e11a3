// Figure 9: bit error probability of BHSS vs DSSS/FHSS against Eb/N0.
// Setup per the paper: per-chip SJR = -20 dB, processing gain L = 20 dB,
// bandwidth hopping range 100; jammer bandwidths Bj/max(Bp) in
// {1, 0.3, 0.1, 0.03, 0.01} plus a randomly hopping jammer.
// Expected shape: DSSS/FHSS pinned near 0.5 across the plot; every BHSS
// curve far below; fixed narrow jammers worst for the jammer; the random
// jammer between the extremes (~1e-7 at 15 dB in the paper).

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/theory.hpp"
#include "dsp/utils.hpp"

int main(int argc, char** argv) {
  using namespace bhss;
  using core::theory::BhssModel;
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::Campaign campaign(opt, "fig09");
  bench::header("Figure 9", "BER vs Eb/N0: BHSS vs DSSS/FHSS (SJR -20 dB, L 20 dB, range 100)");

  const BhssModel model = BhssModel::log_uniform(100.0, 7, dsp::db_to_linear(20.0),
                                                 dsp::db_to_linear(20.0));
  const std::vector<double> jam_bw = {1.0, 0.3, 0.1, 0.03, 0.01};

  std::printf("%8s  %12s", "Eb/N0dB", "DSSS/FHSS");
  for (double bj : jam_bw) std::printf("  BHSS:Bj=%-5.2f", bj);
  std::printf("  %12s\n", "BHSS:random");

  for (double ebno_db = 0.0; ebno_db <= 20.0 + 1e-9; ebno_db += 1.0) {
    const bench::Stopwatch watch;
    const double ebno = dsp::db_to_linear(ebno_db);
    std::printf("%8.1f  %12.3e", ebno_db, model.ber_dsss(ebno));
    bench::JsonLine line;
    line.add("figure", "fig09").add("ebno_db", ebno_db).add("ber_dsss", model.ber_dsss(ebno));
    for (double bj : jam_bw) {
      const double ber = model.ber_fixed_jammer(bj, ebno);
      std::printf("  %12.3e", ber);
      char key[32];
      std::snprintf(key, sizeof(key), "ber_bj_%g", bj);
      line.add(key, ber);
    }
    const double ber_random = model.ber_random_jammer(ebno);
    std::printf("  %12.3e\n", ber_random);
    line.add("ber_random", ber_random);
    char point[32];
    std::snprintf(point, sizeof(point), "ebno%.0f", ebno_db);
    campaign.emit(point, std::move(line), watch.seconds());
  }

  const double ebno15 = dsp::db_to_linear(15.0);
  std::printf("\n# anchors at Eb/N0 = 15 dB:\n");
  std::printf("#   DSSS/FHSS BER = %.3e (paper: stays 'close to 0.5')\n",
              model.ber_dsss(ebno15));
  std::printf("#   BHSS random-jammer BER = %.3e (paper: ~1e-7)\n",
              model.ber_random_jammer(ebno15));
  std::printf("#   random jammer worse than Bj=1.0 for the jammer: %s (paper: yes)\n",
              model.ber_random_jammer(ebno15) < model.ber_fixed_jammer(1.0, ebno15) ? "yes"
                                                                                    : "no");
  std::printf("#   random jammer better than Bj=0.01 for the jammer: %s (paper: yes)\n",
              model.ber_random_jammer(ebno15) > model.ber_fixed_jammer(0.01, ebno15) ? "yes"
                                                                                     : "no");
  return 0;
}
