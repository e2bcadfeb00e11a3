#pragma once

/// @file link_obs.hpp
/// Canonical telemetry schema for the link pipeline + the per-shard
/// bundle that rides alongside LinkStats through `run_link_shard`.
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

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/link_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bhss::obs {

/// Stable instrument ids of the canonical link registry. Counters sum
/// across shards; gauges keep the value of the highest shard that set
/// them; histograms sum bin-wise.
///
/// The registry opens with the LinkStats projection: one counter per
/// `projected` row of `core::kLinkStatsFields`, named after the field and
/// added once per shard by `add_link_stats`. The instruments below it are
/// obs-only. Each is derived from one trace event type by
/// `LinkObs::record`, except the two cache counters, which
/// `ControlLogic` counts through `LinkObs::add` where the cache answers.
struct LinkIds {
  /// Counter id of each projected LinkStats row, indexed by table row
  /// (rows that are not projected are never registered; their slot is 0).
  std::array<std::size_t, core::kLinkStatsFields.size()> stats{};
  // obs-only counters
  std::size_t sync_attempts = 0;    ///< preamble acquisition attempts
  std::size_t sync_locks = 0;       ///< accepted acquisitions
  std::size_t hops = 0;             ///< hop slices demodulated
  std::size_t filter_none = 0;      ///< per-hop decision: no filtering
  std::size_t filter_lowpass = 0;   ///< per-hop decision: low-pass (eq. (3))
  std::size_t filter_excision = 0;  ///< per-hop decision: excision (eq. (4))
  /// Per-hop degenerate-PSD decisions. Not LinkStats::filter_fallback,
  /// which also counts the acquisition-window decisions.
  std::size_t degenerate_psd = 0;
  std::size_t filter_cache_hits = 0;    ///< excision designs replayed from the cache
  std::size_t filter_cache_misses = 0;  ///< excision designs computed and stored
  std::size_t adapt_windows = 0;        ///< jam-detector windows closed
  // gauges
  std::size_t last_sync_quality = 0;
  std::size_t last_sync_margin = 0;
  std::size_t adapt_state = 0;  ///< current LinkAdaptState ordinal
  // histograms
  std::size_t est_jammer_bw = 0;  ///< estimated jammer occupancy (fraction of band)
  std::size_t inband_peak_db = 0; ///< in-band peak-over-median (dB)
  std::size_t sync_margin = 0;    ///< CFAR margin of accepted locks
};

/// Process-wide canonical schema (built once, immortal) and its ids.
[[nodiscard]] const MetricsRegistry& link_registry();
[[nodiscard]] const LinkIds& link_ids();

/// Add one shard's projected LinkStats counters into `m` (bound to the
/// canonical link registry). `run_link_shard` calls this once, after its
/// last packet.
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
  /// derivation table sits beside trace_event_json_body in link_obs.cpp.
  /// The handle must be on.
  BHSS_HOT void record(const TraceEvent& ev) const noexcept;

  /// Count one of the two events no TraceEvent carries: the filter-design
  /// cache's `filter_cache_hits` and `filter_cache_misses`, counted where
  /// the cache answers. The handle must be on.
  void add(std::size_t counter_id) const noexcept;

  /// The ring whose scope slots BHSS_TRACE_SCOPE times into (null = off).
  [[nodiscard]] TraceSink* sink() const noexcept;
};

/// One shard's owned telemetry: canonical-schema metrics + event ring.
struct ShardTelemetry {
  MetricsShard metrics{&link_registry()};
  TraceSink trace{kDefaultTraceCapacity};
  /// The schema's ids, bound here so that record() never reaches the
  /// schema's one-time construction (which allocates).
  const LinkIds* ids = &link_ids();

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

/// Inverse of serialize_telemetry against the canonical link registry.
/// Returns false (leaving `out` unspecified) on any malformed input,
/// including a trace capacity other than kDefaultTraceCapacity — the
/// only capacity any writer uses.
[[nodiscard]] bool deserialize_telemetry(std::string_view text, ShardTelemetry& out);

/// JSON body fragments (`"key":value,...` without braces) for the JSONL
/// emitters. Deterministic: fixed key order, integers verbatim, doubles
/// printed with %.17g (shortest exact round trip is not needed — equal
/// bits always print equal bytes).
[[nodiscard]] std::string metrics_json_body(const MetricsShard& m);
[[nodiscard]] std::string trace_event_json_body(const TraceEvent& ev);
[[nodiscard]] std::string scope_stats_json_body(const TraceSink& t);

}  // namespace bhss::obs
