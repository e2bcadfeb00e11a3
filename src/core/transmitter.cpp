#include "core/transmitter.hpp"

#include <array>
#include <cmath>

#include "core/contracts.hpp"
#include "dsp/simd/simd.hpp"
#include "phy/frame.hpp"
#include "phy/modem.hpp"
#include "phy/spreader.hpp"

namespace bhss::core {

FramePlan plan_frame(const SystemConfig& config, std::uint64_t frame_counter,
                     std::size_t n_symbols, const HopOverride& ov) {
  SharedRandom rng = SharedRandom::for_frame(config.seed, frame_counter);
  FramePlan plan;
  plan.scrambler_seed = rng.derive_scrambler_seed();

  const HopPattern& pattern = ov.pattern != nullptr ? *ov.pattern : config.pattern;
  const std::size_t symbols_per_hop =
      ov.symbols_per_hop != 0 ? ov.symbols_per_hop : config.symbols_per_hop;
  BHSS_REQUIRE(pattern.bands().size() == config.pattern.bands().size(),
               "plan_frame: hop override must cover the configured bandwidth set");
  plan.schedule =
      config.hopping
          ? HopSchedule::make(n_symbols, symbols_per_hop, pattern, rng)
          : HopSchedule::fixed(n_symbols, config.pattern.bands(), config.pattern.fixed_level());
  return plan;
}

BhssTransmitter::BhssTransmitter(SystemConfig config) : config_(std::move(config)) {}

dsp::cvec BhssTransmitter::modulate_symbols(std::span<const std::uint8_t> symbols,
                                            std::size_t n_symbols, const HopSchedule& schedule,
                                            std::uint32_t scrambler_seed) {
  n_symbols = std::min(n_symbols, symbols.size());
  const auto covered = [&](const HopSegment& seg) {
    return std::min(seg.n_symbols, n_symbols - seg.first_symbol);
  };

  // Waveform spans the samples of the covered symbols.
  std::size_t wave_len = 0;
  for (const HopSegment& seg : schedule.segments) {
    if (seg.first_symbol >= n_symbols) break;
    wave_len = seg.start_sample + covered(seg) * phy::kChipsPerSymbol * seg.sps;
  }
  dsp::cvec wave(wave_len, dsp::cf{0.0F, 0.0F});

  // Each symbol is spread on the stack and modulated straight into its
  // hop's span of the frame.
  phy::Spreader spreader(scrambler_seed);
  std::array<float, phy::kChipsPerSymbol> chips{};
  for (const HopSegment& seg : schedule.segments) {
    if (seg.first_symbol >= n_symbols) break;
    const phy::QpskModem& modem = phy::QpskModem::of(seg.sps);
    const std::size_t symbol_samples = phy::kChipsPerSymbol * seg.sps;
    const dsp::cspan_mut hop =
        dsp::cspan_mut{wave}.subspan(seg.start_sample, covered(seg) * symbol_samples);
    for (std::size_t s = 0; s < covered(seg); ++s) {
      spreader.spread_symbol(symbols[seg.first_symbol + s], chips);
      modem.modulate(chips, hop.subspan(s * symbol_samples, symbol_samples));
    }

    // Unit-energy pulses give a mean power of 1/sps; rescale so every hop
    // transmits at the same power (the power budget of §2 is constant —
    // hopping trades bandwidth, not power).
    const auto gain = static_cast<float>(std::sqrt(static_cast<double>(seg.sps)));
    dsp::simd::scale_inplace(hop.data(), gain, hop.size());
  }
  return wave;
}

Transmission BhssTransmitter::transmit(std::span<const std::uint8_t> payload,
                                       std::uint64_t frame_counter,
                                       const HopOverride& ov) const {
  Transmission tx;
  tx.frame_counter = frame_counter;
  tx.symbols = phy::build_frame_symbols(payload);
  FramePlan plan = plan_frame(config_, frame_counter, tx.symbols.size(), ov);
  tx.schedule = std::move(plan.schedule);
  tx.samples = modulate_symbols(tx.symbols, tx.symbols.size(), tx.schedule, plan.scrambler_seed);
  return tx;
}

}  // namespace bhss::core
