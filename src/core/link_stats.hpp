#pragma once

/// @file link_stats.hpp
/// Per-shard link statistics and their field table — the one definition of
/// the counter schema. Every view of a `LinkStats` iterates
/// `kLinkStatsFields` instead of spelling the members out: the shard merge
/// (`merge_link_stats`), the checkpoint journal's `S` records
/// (`runtime::journal`), equality, and the metrics projection
/// (`obs::add_link_stats`). Adding a counter is one member plus one table
/// row; a member without a row fails the `static_assert` below.
///
/// Header-only on purpose: the obs layer registers the projected counters
/// from this table without linking the core library.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace bhss::core {

/// Aggregated link statistics.
struct LinkStats {
  std::size_t packets = 0;
  std::size_t detected = 0;       ///< frames whose preamble was acquired
  std::size_t ok = 0;             ///< frames that passed the CRC
  std::size_t symbol_errors = 0;
  std::size_t total_symbols = 0;
  double airtime_s = 0.0;         ///< total waveform time on air
  double throughput_bps = 0.0;    ///< delivered payload bits / airtime

  // Failure taxonomy (graceful degradation accounting): *how* frames were
  // lost or saved, not just how many. Merged across shards like the
  // counters above.
  std::size_t sync_lost = 0;      ///< bounded re-acquisition exhausted
  std::size_t reacquired = 0;     ///< frames acquired on a retry attempt
  std::size_t filter_fallback = 0;   ///< degenerate-PSD control-logic fallbacks
  std::size_t corrupt_input_rejected = 0;  ///< captures with NaN/Inf scrubbed
  std::size_t faults_injected = 0;  ///< fault events applied by the injector

  // Campaign-orchestration taxonomy. Nothing sets these two: they counted
  // the shards a per-shard watchdog quarantined or retried, and the runner
  // no longer has one. They stay, always 0, only because bench/suite's
  // digest and goldens name them; the `S` record and fault_campaign's
  // JSONL keys carry them unchanged.
  std::size_t shard_timeout = 0;  ///< always 0 (was: shards quarantined)
  std::size_t shard_retried = 0;  ///< always 0 (was: shards retried)

  // Closed-loop adaptation taxonomy (src/adapt): what the resilience
  // controller did, summed across shards like everything above.
  std::size_t adapt_transitions = 0;     ///< state-machine edges taken
  std::size_t adapt_jam_episodes = 0;    ///< entries into DEGRADED
  std::size_t adapt_fallbacks = 0;       ///< entries into FALLBACK
  std::size_t adapt_recoveries = 0;      ///< completed returns to NOMINAL
  std::size_t adapt_windows_jammed = 0;  ///< detector windows that tripped
  std::size_t adapt_packets_adapted = 0; ///< packets sent under a non-base plan

  [[nodiscard]] double per() const noexcept {
    return packets == 0 ? 1.0
                        : 1.0 - static_cast<double>(ok) / static_cast<double>(packets);
  }
  [[nodiscard]] double ser() const noexcept {
    return total_symbols == 0
               ? 1.0
               : static_cast<double>(symbol_errors) / static_cast<double>(total_symbols);
  }
};

/// One row of the field table: a named member, either a counter or a
/// double. Both are 64 bits wide, so every field has one canonical 64-bit
/// image (`bits`) — the counter value or the IEEE-754 bit pattern — which
/// is what the journal stores and what equality compares.
struct LinkStatsField {
  const char* name;                          ///< journal/metrics key
  std::size_t LinkStats::* count = nullptr;  ///< set for a counter field
  double LinkStats::* real = nullptr;        ///< set for a double field
  bool derived = false;    ///< recomputed after a merge, never summed
  bool projected = false;  ///< also a metrics counter, added per shard

  [[nodiscard]] constexpr std::uint64_t bits(const LinkStats& s) const noexcept {
    return count != nullptr ? s.*count : std::bit_cast<std::uint64_t>(s.*real);
  }
  constexpr void set_bits(LinkStats& s, std::uint64_t v) const noexcept {
    if (count != nullptr) {
      s.*count = v;
    } else {
      s.*real = std::bit_cast<double>(v);
    }
  }
  /// into += from, as integer or floating-point addition.
  constexpr void add(LinkStats& into, const LinkStats& from) const noexcept {
    if (count != nullptr) {
      into.*count += from.*count;
    } else {
      into.*real += from.*real;
    }
  }
};

/// Every LinkStats member, in journal order. `projected` marks the
/// per-packet counters that `run_link_shard` also adds into its metrics
/// shard; `shard_timeout`/`shard_retried` are never set, so they are not
/// projected.
inline constexpr std::array kLinkStatsFields = [] {
  const auto counter = [](const char* name, std::size_t LinkStats::* m,
                          bool projected = false) {
    return LinkStatsField{name, m, nullptr, false, projected};
  };
  const auto real = [](const char* name, double LinkStats::* m, bool derived = false) {
    return LinkStatsField{name, nullptr, m, derived, false};
  };
  constexpr bool kProjected = true;
  constexpr bool kDerived = true;
  return std::array{
      counter("packets", &LinkStats::packets, kProjected),
      counter("detected", &LinkStats::detected, kProjected),
      counter("ok", &LinkStats::ok, kProjected),
      counter("symbol_errors", &LinkStats::symbol_errors),
      counter("total_symbols", &LinkStats::total_symbols),
      real("airtime_s", &LinkStats::airtime_s),
      real("throughput_bps", &LinkStats::throughput_bps, kDerived),
      counter("sync_lost", &LinkStats::sync_lost, kProjected),
      counter("reacquired", &LinkStats::reacquired, kProjected),
      counter("filter_fallback", &LinkStats::filter_fallback),
      counter("corrupt_input_rejected", &LinkStats::corrupt_input_rejected, kProjected),
      counter("faults_injected", &LinkStats::faults_injected, kProjected),
      counter("shard_timeout", &LinkStats::shard_timeout),
      counter("shard_retried", &LinkStats::shard_retried),
      counter("adapt_transitions", &LinkStats::adapt_transitions, kProjected),
      counter("adapt_jam_episodes", &LinkStats::adapt_jam_episodes),
      counter("adapt_fallbacks", &LinkStats::adapt_fallbacks),
      counter("adapt_recoveries", &LinkStats::adapt_recoveries),
      counter("adapt_windows_jammed", &LinkStats::adapt_windows_jammed, kProjected),
      counter("adapt_packets_adapted", &LinkStats::adapt_packets_adapted, kProjected),
  };
}();

static_assert(sizeof(std::size_t) == sizeof(std::uint64_t) &&
                  sizeof(double) == sizeof(std::uint64_t),
              "LinkStats fields share one 64-bit image");
static_assert(sizeof(LinkStats) == kLinkStatsFields.size() * sizeof(std::uint64_t),
              "every LinkStats member needs a row in kLinkStatsFields");

/// Field-wise equality; doubles compare by bit pattern (NaN equals itself,
/// 0.0 differs from -0.0), the journal's notion of "the same statistics".
[[nodiscard]] constexpr bool operator==(const LinkStats& a, const LinkStats& b) noexcept {
  for (const LinkStatsField& f : kLinkStatsFields) {
    if (f.bits(a) != f.bits(b)) return false;
  }
  return true;
}

}  // namespace bhss::core
