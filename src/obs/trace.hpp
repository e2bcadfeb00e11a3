#pragma once

/// @file trace.hpp
/// Bounded, deterministic per-hop event tracing + per-stage timing scopes.
///
/// A `TraceSink` is a fixed-capacity ring buffer of POD `TraceEvent`s,
/// single-writer like `MetricsShard` (one sink per simulation shard).
/// When the ring is full the oldest event is overwritten and a drop
/// counter advances — emitters surface the drop count so truncation is
/// never silent. Event *content* is deterministic (pure function of the
/// shard's seed tuple); wall-clock timing never enters the event stream —
/// `BHSS_TRACE_SCOPE` timings accumulate in separate per-scope slots that
/// emitters write to a non-deterministic `.timing` sidecar, mirroring the
/// bench JSONL convention from the checkpoint layer.
///
/// Events reach the ring through `LinkObs::record` (link_obs.hpp), which
/// also applies every metric derived from the event. A site with no
/// telemetry attached pays one null test: it builds no event, and
/// `BHSS_TRACE_SCOPE` with a null sink reads no clock.

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace bhss::obs {

enum class TraceEventType : std::uint8_t {
  hop_decision = 0,  ///< per-hop filter choice + eq. (10) threshold terms
  sync_attempt,      ///< one preamble acquisition attempt
  sync_lock,         ///< frame accepted (possibly after re-acquisition)
  sync_loss,         ///< all acquisition attempts exhausted
  fault_applied,     ///< fault injector mutated the capture
  packet_done,       ///< end-of-packet summary
  adapt_window,      ///< jam-detector window closed
  adapt_transition,  ///< resilience state machine changed state
};
inline constexpr std::size_t kNumTraceEventTypes = 8;

/// Stable lowercase name used as the JSONL "event" value.
[[nodiscard]] const char* trace_event_name(TraceEventType type) noexcept;

/// One structured event. Fixed-size POD so the ring never allocates.
/// `flag`/`v0..v5` are type-specific (see trace_event_json_body in
/// link_obs.cpp for the authoritative field mapping, and LinkObs::record
/// beside it for the metrics each type derives):
///  - hop_decision: flag = filter kind (0 none / 1 lowpass / 2 excision /
///    3 degenerate-PSD fallback), bw_index = hop bandwidth level,
///    v0 = est_jammer_bw_frac, v1 = eq. (10) guard threshold
///    (excision_match_guard * signal bandwidth fraction), v2/v3 = in-band
///    peak-over-median dB and its threshold, v4/v5 = out-of-band level dB
///    and its threshold.
///  - sync_attempt: flag = outcome (0 miss / 1 lock / 2 CFAR reject),
///    hop = attempt ordinal, v0 = threshold, v1 = max lag, v2 = quality,
///    v3 = margin.
///  - sync_lock: flag = reacquired, hop = attempts used, v0 = frame
///    start, v1 = phase, v2 = cfo, v3 = quality, v4 = margin.
///  - sync_loss: hop = attempts used.
///  - fault_applied: flag = FaultKind ordinal, hop = event ordinal in the
///    packet's plan, v0 = offset, v1 = length, v2 = magnitude.
///  - packet_done: flag = delivered (CRC ok), hop = hops demodulated,
///    v0 = sync attempts, v1 = filter fallbacks, v2 = frame detected.
///  - adapt_window: flag = window jammed, hop = window ordinal, packet =
///    closing packet, v0 = bad fraction, v1 = trip threshold, v2 = bad
///    packets, v3 = jammed-window streak.
///  - adapt_transition: flag = new LinkAdaptState ordinal (0 nominal /
///    1 degraded / 2 fallback / 3 recovering), hop = window ordinal,
///    packet = closing packet of that window, v0 = previous state
///    ordinal, v1 = new symbols_per_hop, v2 = new plan epoch.
struct TraceEvent {
  TraceEventType type = TraceEventType::hop_decision;
  std::uint8_t flag = 0;
  std::uint16_t bw_index = 0;
  std::uint32_t hop = 0;
  std::uint64_t packet = 0;
  double v0 = 0.0, v1 = 0.0, v2 = 0.0, v3 = 0.0, v4 = 0.0, v5 = 0.0;
};

/// Receiver pipeline stages timed by BHSS_TRACE_SCOPE.
enum class TraceScopeId : std::uint8_t {
  receive = 0,       ///< whole BhssReceiver::receive call
  choose_filter,     ///< ControlLogic decision (PSD estimate + thresholds)
  filter_apply,      ///< FFT-convolver filtering of the hop slice
  preamble_acquire,  ///< PreambleSync acquire/refine
  carrier_track,     ///< Costas loop
  demod_despread,    ///< QPSK demod + despreader
  fault_inject,      ///< FaultInjector::apply
};
inline constexpr std::size_t kNumTraceScopes = 7;

[[nodiscard]] const char* trace_scope_name(TraceScopeId id) noexcept;

struct TraceScopeStats {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};

inline constexpr std::size_t kDefaultTraceCapacity = 4096;

/// Single-writer bounded event ring + per-stage timing accumulators.
class TraceSink {
 public:
  explicit TraceSink(std::size_t capacity = kDefaultTraceCapacity);

  void push(const TraceEvent& ev) noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Events ever pushed (retained + dropped).
  [[nodiscard]] std::uint64_t total_recorded() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return total_ - static_cast<std::uint64_t>(size_);
  }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  void note_scope(TraceScopeId id, std::uint64_t ns) noexcept;
  [[nodiscard]] const TraceScopeStats& scope(TraceScopeId id) const noexcept {
    return scopes_[static_cast<std::size_t>(id)];
  }

  /// Fold `other`'s scope timings into this sink (event rings are never
  /// merged — a merged ring would re-drop; emitters walk shards in order).
  void merge_scopes_from(const TraceSink& other) noexcept;

  /// Deserialization back door: restore the lifetime push count so the
  /// drop accounting survives a journal round trip. `total` must be >=
  /// the current count; never call on a sink still being written.
  void restore_total(std::uint64_t total) noexcept;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;  ///< ring slot the next push writes
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
  std::array<TraceScopeStats, kNumTraceScopes> scopes_{};
};

/// RAII stage timer; records into the sink on destruction. Null sink =
/// no clock reads at all.
class TraceScope {
 public:
  TraceScope(TraceSink* sink, TraceScopeId id) noexcept : sink_(sink), id_(id) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~TraceScope() {
    if (sink_ != nullptr) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      sink_->note_scope(id_, ns < 0 ? 0u : static_cast<std::uint64_t>(ns));
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceSink* sink_;
  TraceScopeId id_;
  std::chrono::steady_clock::time_point start_{};
};

#define BHSS_OBS_CONCAT_IMPL(a, b) a##b
#define BHSS_OBS_CONCAT(a, b) BHSS_OBS_CONCAT_IMPL(a, b)
/// Time the enclosing scope into `sink` (a TraceSink*, may be null).
#define BHSS_TRACE_SCOPE(sink, id) \
  ::bhss::obs::TraceScope BHSS_OBS_CONCAT(bhss_trace_scope_, __LINE__)((sink), (id))

}  // namespace bhss::obs
