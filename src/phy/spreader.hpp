#pragma once

/// @file spreader.hpp
/// DSSS spreading / despreading on top of the 16-ary chip table, with a
/// PN scrambler so the over-the-air chip stream is unpredictable to the
/// jammer (the "PN sequence" box of Fig. 4/6 in the paper).
///
/// Spreading: 4-bit symbol -> 32 chips from the table, each multiplied by
/// a +-1 scrambler chip drawn from a seeded LFSR. Despreading: multiply
/// the received soft chips by the same scrambler, correlate against all
/// 16 table rows and pick the argmax (paper §6.1).

#include <cstdint>
#include <vector>

#include "core/contracts.hpp"
#include "dsp/types.hpp"
#include "phy/chip_table.hpp"
#include "phy/pn.hpp"

namespace bhss::phy {

/// Streaming spreader: converts a symbol stream into antipodal chips.
/// The scrambler LFSR advances 32 chips per symbol; transmitter and
/// receiver must construct their Spreader/Despreader from the same seed
/// (a link derives it per frame, SharedRandom::derive_scrambler_seed).
class Spreader {
 public:
  /// @param scrambler_seed  shared PN seed (LfsrPn maps 0 to state 1)
  explicit Spreader(std::uint32_t scrambler_seed);

  /// Spread one 4-bit symbol into its 32 scrambled chips.
  void spread_symbol(std::uint8_t symbol, std::span<float, kChipsPerSymbol> out);

 private:
  LfsrPn pn_;
};

/// Result of despreading one symbol.
struct DespreadResult {
  std::uint8_t symbol = 0;    ///< best-matching symbol (0..15)
  float correlation = 0.0F;   ///< winning correlation value
  float runner_up = 0.0F;     ///< second-best correlation (decision margin)
};

/// Result of despreading one symbol from complex chip pairs.
struct DespreadPairsResult {
  std::uint8_t symbol = 0;          ///< best-matching symbol (0..15)
  dsp::cf correlation{0.0F, 0.0F};  ///< complex winning correlation; its
                                    ///< argument is the residual carrier
                                    ///< phase over this symbol
  float coherence = 0.0F;           ///< |correlation| / max achievable, in
                                    ///< [0, 1]; low values flag jammed or
                                    ///< misdecoded symbols
};

/// Streaming despreader (must consume symbols in transmission order so its
/// scrambler stays aligned with the transmitter's).
class Despreader {
 public:
  explicit Despreader(std::uint32_t scrambler_seed);

  /// Correlate 32 received soft chips against all table rows.
  [[nodiscard]] BHSS_HOT DespreadResult despread_symbol(std::span<const float> soft_chips);

  /// Correlate 16 complex chip pairs (from QpskModem::demodulate_pairs)
  /// against all table rows. The
  /// decision maximises the coherent (real) correlation; the returned
  /// complex value additionally measures the residual carrier phase.
  [[nodiscard]] BHSS_HOT DespreadPairsResult despread_pairs(dsp::cspan pairs);

 private:
  LfsrPn pn_;
};

/// Pack 4-bit symbols (low nibble first, 802.15.4 convention) from bytes.
[[nodiscard]] std::vector<std::uint8_t> bytes_to_symbols(std::span<const std::uint8_t> bytes);

/// Re-assemble bytes from 4-bit symbols; symbols.size() must be even.
[[nodiscard]] std::vector<std::uint8_t> symbols_to_bytes(std::span<const std::uint8_t> symbols);

}  // namespace bhss::phy
