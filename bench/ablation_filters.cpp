// Ablation: the receiver's filter design choices (DESIGN.md §5).
//  (a) filter policy — adaptive control logic vs off / always-lowpass /
//      always-excision, under narrow-band, wide-band and matched jammers
//      (tests eq. (10)'s "don't excise a matched jammer" rule);
//  (b) excision style — literal eq. (3) whitening vs the template-notch
//      variant (self-noise cost on an oversampled waveform);
//  (c) PSD estimator — Welch vs Bartlett vs single periodogram.

#include <cstdio>
#include <string>

#include "baseline/dsss_baseline.hpp"
#include "bench_util.hpp"
#include "core/link_simulator.hpp"

namespace {

using namespace bhss;

const char* policy_name(core::FilterPolicy policy) {
  switch (policy) {
    case core::FilterPolicy::off: return "off";
    case core::FilterPolicy::adaptive: return "adaptive";
    case core::FilterPolicy::always_lowpass: return "lowpass";
    case core::FilterPolicy::always_excision: return "excision";
  }
  return "?";
}

core::SimConfig scenario(const core::BandwidthSet& bands, std::size_t sig_level,
                         double jam_frac, double snr_db, const bench::Options& opt) {
  core::SimConfig cfg;
  cfg.system = baseline::dsss_config(bands, sig_level);
  cfg.payload_len = 6;
  cfg.n_packets = opt.packets * 2;
  cfg.channel_seed = opt.seed;
  cfg.snr_db = snr_db;
  cfg.jnr_db = 25.0;
  cfg.jammer.kind = core::JammerSpec::Kind::fixed_bandwidth;
  cfg.jammer.bandwidth_frac = jam_frac;
  return cfg;
}

/// `slug` is the whitespace-free campaign id of the scenario; `name` the
/// human table label.
void run_policy_row(const char* slug, const char* name, core::SimConfig cfg,
                    bench::Campaign& campaign) {
  std::printf("%-28s", name);
  for (auto policy : {core::FilterPolicy::off, core::FilterPolicy::adaptive,
                      core::FilterPolicy::always_lowpass, core::FilterPolicy::always_excision}) {
    cfg.system.filter_policy = policy;
    const std::string point = std::string("policy_") + slug + "_" + policy_name(policy);
    const bench::Stopwatch watch;
    const core::LinkStats s = campaign.run_point(point, cfg);
    std::printf("  %6.3f/%-4zu", s.ser(), s.ok);
    campaign.emit(point,
                  bench::JsonLine()
                      .add("figure", "ablation_filters")
                      .add("section", "policy")
                      .add("scenario", name)
                      .add("policy", policy_name(policy))
                      .add("ser", s.ser())
                      .add("per", s.per())
                      .add("delivered", s.ok)
                      .add("packets", s.packets),
                  watch.seconds());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bhss;
  const bench::Options opt = bench::parse_options(argc, argv, 15);
  bench::header("Ablation", "filter policy, excision style, PSD estimator");
  bench::Campaign campaign(opt, "ablation_filters");
  const core::BandwidthSet bands = core::BandwidthSet::paper();

  try {
    std::printf("\n(a) filter policy: SER/packets-delivered per policy\n");
    std::printf("%-28s  %-11s  %-11s  %-11s  %-11s\n", "scenario", "off", "adaptive",
                "lowpass", "excision");
    run_policy_row("nb16", "NB jam  Bp/Bj=16, snr12",
                   scenario(bands, 0, bands.bandwidth_frac(4), 12.0, opt), campaign);
    run_policy_row("nb4", "NB jam  Bp/Bj=4,  snr12",
                   scenario(bands, 0, bands.bandwidth_frac(2), 12.0, opt), campaign);
    run_policy_row("matched", "matched Bp/Bj=1,  snr22",
                   scenario(bands, 0, bands.bandwidth_frac(0), 22.0, opt), campaign);
    run_policy_row("wb4", "WB jam  Bp/Bj=1/4,snr18",
                   scenario(bands, 2, bands.bandwidth_frac(0), 18.0, opt), campaign);
    std::printf("# expected: adaptive tracks the best column per row; forcing the\n"
                "# excision filter on a matched jammer (row 3) is NOT better than off\n"
                "# (eq. (10)); the low-pass only matters for the wide-band row.\n");

    std::printf("\n(b) excision style on the NB scenario (SER, adaptive policy)\n");
    for (auto style : {core::ExcisionStyle::whitening, core::ExcisionStyle::template_notch}) {
      core::SimConfig cfg = scenario(bands, 0, bands.bandwidth_frac(4), 12.0, opt);
      cfg.system.logic.excision_style = style;
      const bool whiten = style == core::ExcisionStyle::whitening;
      const char* style_name = whiten ? "eq.(3) whitening" : "template notch";
      const std::string point =
          std::string("excision_jammed_") + (whiten ? "whitening" : "notch");
      const bench::Stopwatch watch;
      const core::LinkStats s = campaign.run_point(point, cfg);
      std::printf("  %-16s SER %.3f, delivered %zu/%zu\n", style_name, s.ser(), s.ok, s.packets);
      campaign.emit(point,
                    bench::JsonLine()
                        .add("figure", "ablation_filters")
                        .add("section", "excision_jammed")
                        .add("style", style_name)
                        .add("ser", s.ser())
                        .add("delivered", s.ok)
                        .add("packets", s.packets),
                    watch.seconds());
    }
    std::printf("# and with no jammer at snr 8 (the self-noise cost of whitening):\n");
    for (auto style : {core::ExcisionStyle::whitening, core::ExcisionStyle::template_notch}) {
      core::SimConfig cfg = scenario(bands, 0, 1.0, 8.0, opt);
      cfg.jammer.kind = core::JammerSpec::Kind::none;
      cfg.system.filter_policy = core::FilterPolicy::always_excision;
      cfg.system.logic.excision_style = style;
      const bool whiten = style == core::ExcisionStyle::whitening;
      const char* style_name = whiten ? "eq.(3) whitening" : "template notch";
      const std::string point =
          std::string("excision_clean_") + (whiten ? "whitening" : "notch");
      const bench::Stopwatch watch;
      const core::LinkStats s = campaign.run_point(point, cfg);
      std::printf("  %-16s SER %.3f, delivered %zu/%zu\n", style_name, s.ser(), s.ok, s.packets);
      campaign.emit(point,
                    bench::JsonLine()
                        .add("figure", "ablation_filters")
                        .add("section", "excision_clean")
                        .add("style", style_name)
                        .add("ser", s.ser())
                        .add("delivered", s.ok)
                        .add("packets", s.packets),
                    watch.seconds());
    }

    std::printf("\n(c) PSD estimator on the NB scenario (SER, adaptive policy)\n");
    for (auto method : {core::PsdMethod::welch, core::PsdMethod::bartlett,
                        core::PsdMethod::periodogram}) {
      core::SimConfig cfg = scenario(bands, 0, bands.bandwidth_frac(4), 12.0, opt);
      cfg.system.logic.psd_method = method;
      const char* name = method == core::PsdMethod::welch      ? "welch"
                         : method == core::PsdMethod::bartlett ? "bartlett"
                                                               : "periodogram";
      const std::string point = std::string("psd_") + name;
      const bench::Stopwatch watch;
      const core::LinkStats s = campaign.run_point(point, cfg);
      std::printf("  %-12s SER %.3f, delivered %zu/%zu\n", name, s.ser(), s.ok, s.packets);
      campaign.emit(point,
                    bench::JsonLine()
                        .add("figure", "ablation_filters")
                        .add("section", "psd")
                        .add("method", name)
                        .add("ser", s.ser())
                        .add("delivered", s.ok)
                        .add("packets", s.packets),
                    watch.seconds());
    }
  } catch (const runtime::CampaignInterrupted&) {
    std::printf("\n");
    return campaign.abandon_resumable();
  }
  return 0;
}
