// Table 1: the random distributions of the linear / exponential /
// parabolic hopping patterns over the seven paper bandwidths, plus the
// §6.4.1 average-bandwidth and average-throughput figures, plus our own
// Monte-Carlo re-derivation of the max-min-optimal ("parabolic") pattern.

#include <cstdio>

#include "bench_util.hpp"
#include "core/hop_pattern.hpp"
#include "core/pattern_optimizer.hpp"
#include "dsp/utils.hpp"

int main(int argc, char** argv) {
  using namespace bhss;
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::Campaign campaign(opt, "table1");
  bench::header("Table 1", "hop pattern distributions over the 7 paper bandwidths");

  const core::BandwidthSet bands = core::BandwidthSet::paper();

  std::printf("%-14s", "Bandwidth[MHz]");
  for (std::size_t i = 0; i < bands.size(); ++i) {
    std::printf("  %7.3f", bands.bandwidth_hz(i) / 1e6);
  }
  std::printf("\n");

  const struct {
    core::HopPatternType type;
    const char* paper_row;
  } rows[] = {
      {core::HopPatternType::linear, "14.3 x7"},
      {core::HopPatternType::exponential, "50.4 25.2 12.6 6.3 3.1 1.6 0.8"},
      {core::HopPatternType::parabolic, "27.1 15.8 6.3 0.1 1.3 22.0 27.4"},
  };

  for (const auto& row : rows) {
    const core::HopPattern p = core::HopPattern::make(row.type, bands);
    std::printf("%-14s", to_string(row.type).c_str());
    for (double prob : p.probabilities()) std::printf("  %6.1f%%", 100.0 * prob);
    std::printf("\n");
  }

  std::printf("\n# section 6.4.1 figures (paper values in parentheses):\n");
  const struct {
    core::HopPatternType type;
    double paper_bw_mhz;
    double paper_kbps;
  } figs[] = {
      {core::HopPatternType::linear, 2.83, 354.0},
      {core::HopPatternType::exponential, 6.72, 840.0},
      {core::HopPatternType::parabolic, 3.77, 471.0},
  };
  for (const auto& f : figs) {
    const bench::Stopwatch watch;
    const core::HopPattern p = core::HopPattern::make(f.type, bands);
    std::printf("#   %-12s avg bandwidth %.2f MHz (%.2f), avg throughput %.0f kb/s (%.0f)\n",
                to_string(f.type).c_str(), p.average_bandwidth_hz() / 1e6, f.paper_bw_mhz,
                p.average_throughput_bps() / 1e3, f.paper_kbps);
    campaign.emit(std::string("avg_") + to_string(f.type),
                  bench::JsonLine()
                      .add("figure", "table1")
                      .add("pattern", to_string(f.type).c_str())
                      .add("avg_bandwidth_mhz", p.average_bandwidth_hz() / 1e6)
                      .add("avg_throughput_kbps", p.average_throughput_bps() / 1e3),
                  watch.seconds());
  }

  // Re-derive the parabolic distribution with our Monte-Carlo optimiser
  // over the analytical max-min power-advantage objective (§6.4.1).
  std::printf("\n# Monte-Carlo max-min optimisation (our re-derivation):\n");
  core::OptimizerConfig ocfg;
  const bench::Stopwatch watch;
  const core::HopPattern optimum = core::optimize_max_min_advantage(bands, ocfg);
  std::printf("%-14s", "optimised");
  for (double prob : optimum.probabilities()) std::printf("  %6.1f%%", 100.0 * prob);
  std::printf("\n");
  for (const auto& row : rows) {
    const core::HopPattern p = core::HopPattern::make(row.type, bands);
    std::printf("#   min advantage over all jammer bandwidths: %-12s %.2f dB\n",
                to_string(row.type).c_str(),
                core::min_advantage_db(p, ocfg.jammer_power, ocfg.noise_var));
  }
  const double opt_adv = core::min_advantage_db(optimum, ocfg.jammer_power, ocfg.noise_var);
  std::printf("#   min advantage over all jammer bandwidths: %-12s %.2f dB\n", "optimised",
              opt_adv);
  campaign.emit("optimised",
                bench::JsonLine()
                    .add("figure", "table1")
                    .add("pattern", "optimised")
                    .add("min_advantage_db", opt_adv),
                watch.seconds());
  return 0;
}
