// Spectrum monitor — a look inside the receiver's control logic (§4.2).
//
// Renders ASCII spectra of what the receiver sees for three scenarios
// (clean signal / narrow-band jammer / wide-band jammer), prints the
// control logic's decision, and shows the frequency response of the
// filter it designed.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "channel/awgn.hpp"
#include "core/control_logic.hpp"
#include "core/transmitter.hpp"
#include "dsp/fir.hpp"
#include "dsp/psd.hpp"
#include "dsp/utils.hpp"
#include "jammer/noise_jammer.hpp"
#include "jammer/tone_jammer.hpp"

namespace {

using namespace bhss;

/// Draw a dB-scaled ASCII plot of a DC-centred spectrum.
void draw(const dsp::fvec& centred, const char* title) {
  constexpr std::size_t kCols = 64;
  constexpr int kRows = 8;
  const std::size_t bins_per_col = centred.size() / kCols;

  std::vector<double> col_db(kCols);
  double max_db = -300.0;
  for (std::size_t c = 0; c < kCols; ++c) {
    double acc = 0.0;
    for (std::size_t b = 0; b < bins_per_col; ++b) {
      acc += static_cast<double>(centred[c * bins_per_col + b]);
    }
    col_db[c] = dsp::linear_to_db(acc / static_cast<double>(bins_per_col) + 1e-30);
    max_db = std::max(max_db, col_db[c]);
  }

  std::printf("%s (top = %.0f dB, 5 dB/row)\n", title, max_db);
  for (int r = 0; r < kRows; ++r) {
    const double level = max_db - 5.0 * r;
    std::printf("  |");
    for (std::size_t c = 0; c < kCols; ++c) {
      std::putchar(col_db[c] >= level ? '#' : ' ');
    }
    std::printf("|\n");
  }
  std::printf("  +%s+\n   -Rs/2%*s+Rs/2\n", std::string(kCols, '-').c_str(),
              static_cast<int>(kCols) - 9, "");
}

dsp::cvec received_with(const dsp::cvec& jam_wave, double jnr_db, dsp::cvec rx) {
  const auto g = static_cast<float>(std::sqrt(dsp::db_to_linear(jnr_db)));
  for (std::size_t i = 0; i < rx.size() && i < jam_wave.size(); ++i) rx[i] += g * jam_wave[i];
  channel::AwgnSource noise(3);
  noise.add_to(dsp::cspan_mut{rx}, 1.0);
  return rx;
}

void inspect(const char* name, const dsp::cvec& rx, const core::BandwidthSet& bands,
             std::size_t level) {
  std::printf("\n=== %s ===\n", name);
  draw(dsp::fft_shift(dsp::welch_psd(rx, 512)), "received spectrum");

  const core::ControlLogic logic({}, bands);
  const core::FilterDecision d = logic.decide(rx, level);
  const char* kind = d.kind == core::FilterDecision::Kind::none ? "no filter"
                     : d.kind == core::FilterDecision::Kind::lowpass ? "low-pass filter"
                                                                     : "excision filter";
  std::printf("control logic: %s (in-band peak/floor %.1f dB, out-of-band/in-band %.1f dB,\n"
              "               estimated jammer occupancy %.3f of Rs)\n",
              kind, d.inband_peak_over_median_db, d.oob_to_inband_level_db,
              d.est_jammer_bw_frac);

  if (d.kind != core::FilterDecision::Kind::none) {
    draw(dsp::fft_shift(dsp::power_response(d.plan->taps, 512)), "designed filter |H(f)|^2");
  }
}

constexpr std::size_t kLevel = 2;  // 2.5 MHz signal

/// One transmitted frame at bandwidth level kLevel, at 15 dB SNR.
dsp::cvec transmitted(const core::BandwidthSet& bands) {
  core::SystemConfig sys;
  sys.pattern = core::HopPattern::fixed(bands, kLevel);
  sys.hopping = false;
  const core::BhssTransmitter tx(sys);
  const std::vector<std::uint8_t> payload(24, 0x5A);
  dsp::cvec rx = tx.transmit(payload, 1).samples;
  dsp::scale_to_power(dsp::cspan_mut{rx}, dsp::db_to_linear(15.0));
  return rx;
}

void scenario(const char* name, double jam_bw, double jnr_db) {
  const core::BandwidthSet bands = core::BandwidthSet::paper();
  dsp::cvec rx = transmitted(bands);
  dsp::cvec jam_wave;  // none for the clean channel
  if (jnr_db > -100.0) jam_wave = jammer::NoiseJammer(jam_bw, 11).generate(rx.size());
  inspect(name, received_with(jam_wave, jnr_db, std::move(rx)), bands, kLevel);
}

}  // namespace

int main() {
  std::printf("Receiver control logic demo: 2.5 MHz BHSS signal at 20 MS/s, SNR 15 dB\n");
  scenario("clean channel (no jammer)", 1.0, -300.0);
  scenario("narrow-band jammer: 312 kHz at JNR 25 dB", 1.0 / 64.0, 25.0);
  scenario("wide-band jammer: 10 MHz at JNR 25 dB", 0.5, 25.0);

  // CW tone — the classic excision target ([3]-[7] in the paper).
  const core::BandwidthSet bands = core::BandwidthSet::paper();
  dsp::cvec rx = transmitted(bands);
  const dsp::cvec jam_wave = jammer::ToneJammer(0.02, 13).generate(rx.size());
  inspect("CW tone jammer at +400 kHz, JNR 25 dB", received_with(jam_wave, 25.0, std::move(rx)),
          bands, kLevel);
  return 0;
}
