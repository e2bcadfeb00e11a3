#include "phy/spreader.hpp"

#include <limits>
#include <numbers>

#include "core/contracts.hpp"
#include "dsp/simd/libm.hpp"
#include "dsp/simd/simd.hpp"

namespace bhss::phy {

// The despreader's processing gain and the pair-wise QPSK mapping both
// rely on the chip geometry being a power of two; guard it once here.
static_assert((kChipsPerSymbol & (kChipsPerSymbol - 1)) == 0,
              "kChipsPerSymbol must be a power of two");
static_assert((kNumSymbols & (kNumSymbols - 1)) == 0, "kNumSymbols must be a power of two");

Spreader::Spreader(std::uint32_t scrambler_seed) : pn_(scrambler_seed) {}

void Spreader::spread_symbol(std::uint8_t symbol, std::span<float, kChipsPerSymbol> out) {
  BHSS_REQUIRE(symbol < kNumSymbols, "spread_symbol: symbol must be 0..15");
  const ChipSequence& row = ChipTable::instance().sequence(symbol);
  for (std::size_t c = 0; c < out.size(); ++c) out[c] = row[c] * pn_.next_chip();
}

Despreader::Despreader(std::uint32_t scrambler_seed) : pn_(scrambler_seed) {}

DespreadResult Despreader::despread_symbol(std::span<const float> soft_chips) {
  BHSS_REQUIRE(soft_chips.size() == kChipsPerSymbol, "despread_symbol: need exactly 32 soft chips");

  // Undo the scrambler once, then correlate with every candidate row.
  std::array<float, kChipsPerSymbol> descrambled{};
  for (std::size_t c = 0; c < kChipsPerSymbol; ++c) {
    descrambled[c] = soft_chips[c] * pn_.next_chip();
  }

  DespreadResult result;
  result.correlation = -std::numeric_limits<float>::infinity();
  result.runner_up = -std::numeric_limits<float>::infinity();
  const ChipTable& table = ChipTable::instance();
  for (std::uint8_t s = 0; s < kNumSymbols; ++s) {
    const ChipSequence& row = table.sequence(s);
    float corr = 0.0F;
    for (std::size_t c = 0; c < kChipsPerSymbol; ++c) corr += descrambled[c] * row[c];
    if (corr > result.correlation) {
      result.runner_up = result.correlation;
      result.correlation = corr;
      result.symbol = s;
    } else if (corr > result.runner_up) {
      result.runner_up = corr;
    }
  }
  return result;
}

DespreadPairsResult Despreader::despread_pairs(dsp::cspan pairs) {
  BHSS_REQUIRE(pairs.size() == kChipsPerSymbol / 2, "despread_pairs: need exactly 16 chip pairs");

  // Fold the scrambler into the reference rather than "descrambling" the
  // received rails: a carrier rotation mixes the I and Q rails, so
  // rail-wise multiplication of the *received* pair by the scrambler
  // chips would randomise the cross-rail terms and bias the measured
  // phase. Correlating against the scrambled reference keeps the
  // correlation exactly 32 * e^{j phi} for the true symbol.
  std::array<float, kChipsPerSymbol / 2> se;
  std::array<float, kChipsPerSymbol / 2> so;
  double max_corr = 0.0;
  for (std::size_t m = 0; m < pairs.size(); ++m) {
    se[m] = pn_.next_chip();
    so[m] = pn_.next_chip();
    max_corr += static_cast<double>(dsp::simd::abs(pairs[m])) * std::numbers::sqrt2;
  }

  // All 16 candidate correlations at once over the column-major chip
  // table; the reference applied to each pair is conj(se*A + j so*B).
  // The vectorized kernel accumulates pair index m in the same order as
  // the per-symbol scalar loop did, so the correlations are bit-identical.
  std::array<dsp::cf, kNumSymbols> corr;
  dsp::simd::despread_correlate16(pairs.data(), pairs.size(), se.data(), so.data(),
                                  ChipTable::instance().columns(), corr.data());

  DespreadPairsResult result;
  float best = -std::numeric_limits<float>::infinity();
  for (std::uint8_t s = 0; s < kNumSymbols; ++s) {
    if (corr[s].real() > best) {
      best = corr[s].real();
      result.symbol = s;
      result.correlation = corr[s];
    }
  }
  if (max_corr > 0.0) {
    result.coherence =
        static_cast<float>(static_cast<double>(dsp::simd::abs(result.correlation)) / max_corr);
  }
  return result;
}

std::vector<std::uint8_t> bytes_to_symbols(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint8_t> symbols;
  symbols.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    symbols.push_back(static_cast<std::uint8_t>(b & 0x0FU));
    symbols.push_back(static_cast<std::uint8_t>((b >> 4) & 0x0FU));
  }
  return symbols;
}

std::vector<std::uint8_t> symbols_to_bytes(std::span<const std::uint8_t> symbols) {
  BHSS_REQUIRE(symbols.size() % 2 == 0, "symbols_to_bytes: need an even number of symbols");
  std::vector<std::uint8_t> bytes;
  bytes.reserve(symbols.size() / 2);
  for (std::size_t i = 0; i + 1 < symbols.size(); i += 2) {
    bytes.push_back(static_cast<std::uint8_t>((symbols[i] & 0x0FU) |
                                              ((symbols[i + 1] & 0x0FU) << 4)));
  }
  return bytes;
}

}  // namespace bhss::phy
