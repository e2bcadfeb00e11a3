// Figure 11: normalised throughput vs Eb/N0 for BHSS and rate-equalised
// DSSS/FHSS. N = 500-byte packets, SJR = -20 dB, hop range 100,
// L_BHSS = 20 dB; DSSS/FHSS run at the processing gain that equalises the
// data rate in the same spectrum (paper: 25.4 dB).
// Expected shape: BHSS >> DSSS for small jammer bandwidths; for Bj =
// max(Bp) BHSS saturates around ~0.3 while DSSS reaches 1; against the
// random-hopping jammer BHSS is strictly better at every Eb/N0, the curves
// separated by roughly 12 dB.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/theory.hpp"
#include "dsp/utils.hpp"

int main(int argc, char** argv) {
  using namespace bhss;
  using core::theory::BhssModel;
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::Campaign campaign(opt, "fig11");
  bench::header("Figure 11",
                "normalised throughput vs Eb/N0 (N = 500 B, SJR -20 dB, range 100)");

  const BhssModel model = BhssModel::log_uniform(100.0, 7, dsp::db_to_linear(20.0),
                                                 dsp::db_to_linear(20.0));
  const std::size_t n_bits = 500 * 8;
  const std::vector<double> jam_bw = {1.0, 0.3, 0.1, 0.03, 0.01};

  std::printf("# rate-equalised DSSS/FHSS processing gain: %.1f dB (paper: 25.4 dB)\n",
              dsp::linear_to_db(model.dsss_equivalent_processing_gain()));

  std::printf("%8s  %10s  %11s", "Eb/N0dB", "DSSS/FHSS", "BHSS:random");
  for (double bj : jam_bw) std::printf("  BHSS:Bj=%-4.2f", bj);
  std::printf("\n");

  for (double ebno_db = -5.0; ebno_db <= 30.0 + 1e-9; ebno_db += 1.0) {
    const bench::Stopwatch watch;
    const double ebno = dsp::db_to_linear(ebno_db);
    std::printf("%8.1f  %10.3f  %11.3f", ebno_db, model.throughput_dsss(ebno, n_bits),
                model.throughput_random_jammer(ebno, n_bits));
    bench::JsonLine line;
    line.add("figure", "fig11")
        .add("ebno_db", ebno_db)
        .add("throughput_dsss", model.throughput_dsss(ebno, n_bits))
        .add("throughput_random", model.throughput_random_jammer(ebno, n_bits));
    for (double bj : jam_bw) {
      const double t = model.throughput_fixed_jammer(bj, ebno, n_bits);
      std::printf("  %12.3f", t);
      char key[32];
      std::snprintf(key, sizeof(key), "throughput_bj_%g", bj);
      line.add(key, t);
    }
    std::printf("\n");
    char point[32];
    std::snprintf(point, sizeof(point), "ebno%+.0f", ebno_db);
    campaign.emit(point, std::move(line), watch.seconds());
  }

  // The paper's "12 dB separation" between the BHSS-vs-random-jammer curve
  // and the DSSS curve: compare the Eb/N0 each needs for 50 % throughput.
  auto ebno_for_half = [&](auto&& f) {
    for (double db = -5.0; db <= 40.0; db += 0.1) {
      if (f(dsp::db_to_linear(db)) >= 0.5) return db;
    }
    return 40.0;
  };
  const double bhss_half =
      ebno_for_half([&](double e) { return model.throughput_random_jammer(e, n_bits); });
  const double dsss_half =
      ebno_for_half([&](double e) { return model.throughput_dsss(e, n_bits); });
  std::printf("\n# Eb/N0 for 50%% throughput: BHSS(random jammer) %.1f dB, DSSS %s\n",
              bhss_half, dsss_half >= 39.9 ? "never (see below)" : "");
  if (dsss_half >= 39.9) {
    std::printf("# NOTE: under eq. (7) the matched-jammer DSSS output SNR is capped at\n"
                "# L/rho = %.1f dB regardless of Eb/N0, so its 4000-bit packets never\n"
                "# get through and the curve stays at 0 — the paper's Fig. 11 DSSS\n"
                "# curve reaching 1.0 is inconsistent with its own eq. (7); the\n"
                "# BHSS-over-DSSS separation ('roughly 12 dB' in the paper) is\n"
                "# therefore a LOWER bound here (BHSS delivers at %.1f dB, DSSS never).\n",
                dsp::linear_to_db(model.dsss_equivalent_processing_gain() /
                                  model.jammer_power()),
                bhss_half);
  } else {
    std::printf("# separation = %.1f dB (paper: 'roughly 12 dB')\n", dsss_half - bhss_half);
  }
  return 0;
}
