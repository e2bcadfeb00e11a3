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
#include <cstddef>
#include <cstdint>
#include <span>
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

/// One structured event. Fixed-size POD so the ring never allocates.
/// `flag`, `hop` and `v0..v5` are type-specific; kTraceEventFormats below
/// names each of them, and LinkObs::record (link_obs.cpp) derives the
/// metrics of each type.
struct TraceEvent {
  TraceEventType type = TraceEventType::hop_decision;
  std::uint8_t flag = 0;
  std::uint16_t bw_index = 0;
  std::uint32_t hop = 0;
  std::uint64_t packet = 0;
  double v0 = 0.0, v1 = 0.0, v2 = 0.0, v3 = 0.0, v4 = 0.0, v5 = 0.0;
};

/// How one event type renders as a JSONL body: `"event"`, `"pkt"`, then
/// the keys below in this order. A null key is not printed.
struct TraceEventFormat {
  const char* name = nullptr;  ///< the "event" value
  const char* hop = nullptr;   ///< key of `hop`
  bool bw = false;             ///< whether `bw_index` is printed, as "bw"
  const char* flag = nullptr;  ///< key of `flag`
  /// Names of the flag values, printed instead of the number when set;
  /// a flag past the end prints "unknown".
  std::span<const char* const> flag_names{};
  std::array<const char*, 6> v{};  ///< keys of v0..v5
};

inline constexpr std::array<const char*, 4> kFilterFlagNames{"none", "lowpass", "excision",
                                                             "degenerate"};
inline constexpr std::array<const char*, 3> kSyncOutcomeNames{"miss", "lock", "cfar_reject"};
/// LinkAdaptState ordinals.
inline constexpr std::array<const char*, 4> kAdaptStateNames{"nominal", "degraded", "fallback",
                                                             "recovering"};

/// One row per TraceEventType, in enum order. What the keys do not say:
///  - hop_decision: bw = hop bandwidth level; est_jam_bw = estimated
///    jammer occupancy as a fraction of the band; jam_bw_guard = the
///    eq. (10) guard, kExcisionMatchGuard times the signal bandwidth
///    fraction; "degenerate" is the degenerate-PSD fallback, which
///    filters nothing.
///  - fault: kind = FaultKind ordinal; ordinal = the event's place in the
///    packet's plan.
///  - packet_done: delivered = CRC ok; detected = frame detected.
///  - adapt_window and adapt_transition: pkt = the window's closing
///    packet; from = previous LinkAdaptState ordinal; epoch = new plan
///    epoch.
inline constexpr std::array<TraceEventFormat, kNumTraceEventTypes> kTraceEventFormats{{
    {"hop_decision", "hop", true, "filter", kFilterFlagNames,
     {"est_jam_bw", "jam_bw_guard", "peak_db", "peak_thresh_db", "oob_db", "oob_thresh_db"}},
    {"sync_attempt", "attempt", false, "outcome", kSyncOutcomeNames,
     {"threshold", "max_lag", "quality", "margin"}},
    {"sync_lock", "attempts", false, "reacquired", {},
     {"frame_start", "phase", "cfo", "quality", "margin"}},
    {"sync_loss", "attempts"},
    {"fault", "ordinal", false, "kind", {}, {"offset", "len", "magnitude"}},
    {"packet_done", "hops", false, "delivered", {},
     {"sync_attempts", "filter_fallbacks", "detected"}},
    {"adapt_window", "window", false, "jammed", {}, {"bad_frac", "threshold", "bad", "streak"}},
    {"adapt_transition", "window", false, "to", kAdaptStateNames,
     {"from", "symbols_per_hop", "epoch"}},
}};

static_assert(
    [] {
      for (const TraceEventFormat& f : kTraceEventFormats) {
        if (f.name == nullptr || f.hop == nullptr) return false;
      }
      return true;
    }(),
    "kTraceEventFormats: every event type needs a row with a name and a hop key");

/// Stable lowercase name used as the JSONL "event" value.
[[nodiscard]] constexpr const char* trace_event_name(TraceEventType type) noexcept {
  return kTraceEventFormats[static_cast<std::size_t>(type)].name;
}

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
