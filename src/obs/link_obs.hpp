#pragma once

/// @file link_obs.hpp
/// The link pipeline's recording handle, the per-shard telemetry bundle
/// that rides alongside LinkStats through `run_link_shard`, and their
/// wire formats. The schema itself is `kLinkInstruments` (metrics.hpp)
/// and `kTraceEventFormats` (trace.hpp).
///
/// Merge-order contract (shared with `core::merge_link_stats`, see
/// link_simulator.hpp): per-shard telemetry is merged as a left fold in
/// ascending shard order over a vector whose length equals the shard
/// count of the run. `runtime::merge_point_results` BHSS_REQUIREs that
/// the stats and telemetry vectors agree on that length, so the two
/// merges can never silently diverge.
///
/// Recording contract: an event enters a shard's telemetry only through
/// `LinkObs::record`, which pushes it into the ring and applies, in one
/// switch, every obs-only metric derived from it. Each event is counted
/// once and the metrics restate the events by construction. They are
/// derived at record time, not from the ring afterwards, because the
/// ring keeps kDefaultTraceCapacity events and overwrites the oldest.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/link_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bhss::obs {

/// Row of the link instrument named `name`; a name with no row fails the
/// build.
consteval std::size_t instrument_id(std::string_view name) {
  for (std::size_t id = 0; id < kNumInstruments; ++id) {
    if (name == kLinkInstruments[id].name) return id;
  }
  throw "no link instrument has this name";
}

/// Ids of the obs-only rows of kLinkInstruments, by name.
struct LinkIds {
  // counters
  std::size_t sync_attempts = instrument_id("sync_attempts");  ///< acquisition attempts
  std::size_t sync_locks = instrument_id("sync_locks");        ///< accepted acquisitions
  std::size_t hops = instrument_id("hops");                    ///< hop slices demodulated
  /// Per-hop decisions: no filtering, low-pass (eq. (3)), excision (eq. (4)).
  std::size_t filter_none = instrument_id("filter_none");
  std::size_t filter_lowpass = instrument_id("filter_lowpass");
  std::size_t filter_excision = instrument_id("filter_excision");
  /// Per-hop degenerate-PSD decisions. Not LinkStats::filter_fallback,
  /// which also counts the acquisition-window decisions.
  std::size_t degenerate_psd = instrument_id("degenerate_psd");
  /// Excision designs replayed from the cache, and computed and stored.
  std::size_t filter_cache_hits = instrument_id("filter_cache_hits");
  std::size_t filter_cache_misses = instrument_id("filter_cache_misses");
  std::size_t adapt_windows = instrument_id("adapt_windows");  ///< detector windows closed
  // gauges
  std::size_t last_sync_quality = instrument_id("last_sync_quality");
  std::size_t last_sync_margin = instrument_id("last_sync_margin");
  std::size_t adapt_state = instrument_id("adapt_state");  ///< LinkAdaptState ordinal
  // histograms
  std::size_t est_jammer_bw = instrument_id("est_jammer_bw");
  std::size_t inband_peak_db = instrument_id("inband_peak_db");
  std::size_t sync_margin = instrument_id("sync_margin");
};

inline constexpr LinkIds kLinkIds{};
[[nodiscard]] constexpr const LinkIds& link_ids() noexcept { return kLinkIds; }

/// Add one shard's projected LinkStats counters into `m`. `run_link_shard`
/// calls this once, after its last packet.
void add_link_stats(MetricsShard& m, const core::LinkStats& s);

struct ShardTelemetry;

/// The one recording handle threaded through the link chain: a borrowed
/// pointer to the shard's telemetry, null when nothing observes the run.
/// Each event site builds its TraceEvent inside one `if (o)` guard and
/// hands it to record(), so a null handle costs one test per site and
/// builds nothing.
struct LinkObs {
  ShardTelemetry* telemetry = nullptr;

  explicit operator bool() const noexcept { return telemetry != nullptr; }

  /// Push `ev` into the ring and apply every metric derived from it; the
  /// derivation sits beside trace_event_json_body in link_obs.cpp.
  /// The handle must be on.
  BHSS_HOT void record(const TraceEvent& ev) const noexcept;

  /// Count one of the two events no TraceEvent carries: the filter-design
  /// cache's `filter_cache_hits` and `filter_cache_misses`, counted where
  /// the cache answers. The handle must be on.
  void add(std::size_t counter_id) const noexcept;

  /// The ring whose scope slots BHSS_TRACE_SCOPE times into (null = off).
  [[nodiscard]] TraceSink* sink() const noexcept;
};

/// One shard's owned telemetry: link-schema metrics + event ring.
struct ShardTelemetry {
  MetricsShard metrics;
  TraceSink trace{kDefaultTraceCapacity};

  [[nodiscard]] LinkObs obs() noexcept { return LinkObs{this}; }
};

inline TraceSink* LinkObs::sink() const noexcept {
  return telemetry != nullptr ? &telemetry->trace : nullptr;
}

/// Left fold in ascending shard order (the shared merge-order contract).
/// BHSS_REQUIREs shards.size() == expected_shards. The merged bundle
/// carries merged metrics and summed scope timings; its event ring is
/// empty — events are emitted per shard, in shard order, never re-rung.
[[nodiscard]] ShardTelemetry merge_telemetry(const std::vector<ShardTelemetry>& shards,
                                             std::size_t expected_shards);

// -- deterministic wire formats ---------------------------------------

/// Serialize one shard's telemetry to a single whitespace-free-token
/// line (doubles as IEEE-754 hex bit patterns, like the checkpoint
/// journal's stats lines). Bit-exact round trip; scope timings are
/// excluded (non-deterministic by nature).
[[nodiscard]] std::string serialize_telemetry(const ShardTelemetry& t);

/// Inverse of serialize_telemetry. Returns false (leaving `out`
/// untouched) on any malformed input, including a trace capacity other
/// than kDefaultTraceCapacity — the only capacity any writer uses — and
/// any token parse_token refuses.
[[nodiscard]] bool deserialize_telemetry(std::string_view text, ShardTelemetry& out);

/// One whole token of a telemetry blob or a checkpoint journal's stats
/// line: a count in decimal with no sign and no overflow, or a double's
/// bit pattern as exactly 16 hex digits. Anything else is refused, since
/// it would not re-serialize to the token it came from.
[[nodiscard]] bool parse_token(std::string_view tok, bool hex_bits, std::uint64_t& v);

/// JSON body fragments (`"key":value,...` without braces) for the JSONL
/// emitters. Deterministic: fixed key order, integers verbatim, doubles
/// printed with %.17g (shortest exact round trip is not needed — equal
/// bits always print equal bytes).
[[nodiscard]] std::string metrics_json_body(const MetricsShard& m);
[[nodiscard]] std::string trace_event_json_body(const TraceEvent& ev);
[[nodiscard]] std::string scope_stats_json_body(const TraceSink& t);

}  // namespace bhss::obs
