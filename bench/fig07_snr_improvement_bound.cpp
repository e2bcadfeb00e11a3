// Figure 7: upper bound on the SNR improvement factor gamma vs bandwidth
// ratio Bp/Bj, for jammer powers 10/20/30 dBm and sigma_n^2 = 0.01.
// Paper anchors: ~0 dB at Bp/Bj = 0.01..., rising to ~20 dB as Bp/Bj -> 1
// from below on the wide-band side; saturating near the jammer power
// (10/20/30 dB) for large Bp/Bj on the narrow-band side.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/theory.hpp"
#include "dsp/utils.hpp"

int main(int argc, char** argv) {
  using namespace bhss;
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::Campaign campaign(opt, "fig07");
  bench::header("Figure 7", "upper bound on SNR improvement factor (eqs. 11/12)");
  const double noise_var = 0.01;
  const std::vector<double> rho_dbm = {10.0, 20.0, 30.0};

  std::printf("%12s", "Bp/Bj");
  for (double r : rho_dbm) std::printf("  gamma@%2.0fdBm", r);
  std::printf("\n");

  const bench::Stopwatch total;
  std::size_t step = 0;
  for (double e = -2.0; e <= 2.0 + 1e-9; e += 0.125, ++step) {
    const double ratio = std::pow(10.0, e);
    std::printf("%12.4f", ratio);
    for (std::size_t p = 0; p < rho_dbm.size(); ++p) {
      const double r = rho_dbm[p];
      const bench::Stopwatch watch;
      const double gamma = core::theory::snr_improvement_bound(
          ratio, dsp::db_to_linear(r), noise_var);
      std::printf("  %11.2f", dsp::linear_to_db(gamma));
      char point[32];
      std::snprintf(point, sizeof(point), "e%zu_rho%zu", step, p);
      campaign.emit(point,
                    bench::JsonLine()
                        .add("figure", "fig07")
                        .add("bp_over_bj", ratio)
                        .add("jammer_dbm", r)
                        .add("gamma_db", dsp::linear_to_db(gamma)),
                    watch.seconds());
    }
    std::printf("\n");
  }
  std::printf("# total wall time: %.3f s\n", total.seconds());

  // Paper-text anchors for EXPERIMENTS.md.
  std::printf("\n# anchors: gamma(Bp/Bj=0.01, 20dBm) = %.1f dB (paper: ~20 dB)\n",
              dsp::linear_to_db(core::theory::snr_improvement_bound(0.01, 100.0, noise_var)));
  std::printf("# anchors: gamma(Bp/Bj=100, 30dBm) = %.1f dB (paper: ~30 dB)\n",
              dsp::linear_to_db(core::theory::snr_improvement_bound(100.0, 1000.0, noise_var)));
  return 0;
}
