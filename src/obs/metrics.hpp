#pragma once

/// @file metrics.hpp
/// Deterministic, lock-free metrics for the Monte-Carlo runtime.
///
/// Mirrors the `LinkStats` sharding contract (see
/// `core::merge_link_stats` and `runtime::ParallelLinkRunner`): one
/// `MetricsShard` per simulation shard, written by exactly one thread
/// (lock-free by construction — no atomics, no sharing), merged after the
/// fork-join as a left fold in ascending shard order. Counter and
/// histogram merges are integer additions (associative AND commutative);
/// gauge merge is rightmost-set-wins (associative, order-sensitive), so
/// the shard-order left fold is part of the determinism contract: merged
/// telemetry is a pure function of (inputs, n_shards), never of thread
/// count or scheduling.
///
/// The schema is one compile-time table, `kLinkInstruments`, in the
/// `core::kLinkStatsFields` idiom: an instrument's id is its row. Rows are
/// grouped by kind (counters, gauges, histograms), so an id's kind and its
/// storage slot follow from its position, and recording is O(1) array
/// indexing. The `static_assert`s below check the table.

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/contracts.hpp"
#include "core/link_stats.hpp"

namespace bhss::obs {

enum class InstrumentKind : std::uint8_t { counter, gauge, histogram };

/// One row of the instrument table.
struct Instrument {
  const char* name = "";  ///< JSONL key
  InstrumentKind kind = InstrumentKind::counter;
  /// Histograms only. A value lands in one of edges.size() + 2 bins; see
  /// bin_of.
  std::span<const double> edges{};
};

/// Occupancy fraction of the slice bandwidth, eq. (10)'s left-hand side.
inline constexpr std::array kEstJammerBwEdges{0.0, 0.05, 0.1, 0.15, 0.2,
                                              0.3, 0.4,  0.5, 0.7,  1.0};
/// In-band peak over median (dB).
inline constexpr std::array kInbandPeakDbEdges{0.0, 2.0, 4.0, 5.5, 8.0, 12.0, 20.0, 40.0};
/// CFAR margin of accepted locks.
inline constexpr std::array kSyncMarginEdges{0.0, 2.0, 4.5, 7.0, 10.0, 15.0, 25.0, 50.0};

/// The link telemetry schema. It opens with one counter per `projected`
/// row of `core::kLinkStatsFields`, named after the field and added once
/// per shard by `add_link_stats`. The rows after it are obs-only:
/// `LinkObs::record` derives each from one trace event type, except the
/// two cache counters, which `ControlLogic` counts through `LinkObs::add`
/// where the cache answers. Counters sum across shards; gauges keep the
/// value of the highest shard that set them; histograms sum bin-wise.
inline constexpr auto kLinkInstruments = [] {
  using K = InstrumentKind;
  constexpr std::array obs_only{
      Instrument{"sync_attempts"},
      Instrument{"sync_locks"},
      Instrument{"hops"},
      Instrument{"filter_none"},
      Instrument{"filter_lowpass"},
      Instrument{"filter_excision"},
      Instrument{"degenerate_psd"},
      Instrument{"filter_cache_hits"},
      Instrument{"filter_cache_misses"},
      Instrument{"adapt_windows"},
      Instrument{"last_sync_quality", K::gauge},
      Instrument{"last_sync_margin", K::gauge},
      Instrument{"adapt_state", K::gauge},
      Instrument{"est_jammer_bw", K::histogram, kEstJammerBwEdges},
      Instrument{"inband_peak_db", K::histogram, kInbandPeakDbEdges},
      Instrument{"sync_margin", K::histogram, kSyncMarginEdges},
  };
  constexpr std::size_t projected = [] {
    std::size_t n = 0;
    for (const core::LinkStatsField& f : core::kLinkStatsFields) n += f.projected ? 1 : 0;
    return n;
  }();
  std::array<Instrument, projected + obs_only.size()> table{};
  std::size_t row = 0;
  for (const core::LinkStatsField& f : core::kLinkStatsFields) {
    if (f.projected) table[row++] = Instrument{f.name};
  }
  for (const Instrument& i : obs_only) table[row++] = i;
  return table;
}();

inline constexpr std::size_t kNumInstruments = kLinkInstruments.size();

[[nodiscard]] constexpr std::size_t count_instruments(InstrumentKind kind) noexcept {
  std::size_t n = 0;
  for (const Instrument& i : kLinkInstruments) n += i.kind == kind ? 1 : 0;
  return n;
}

inline constexpr std::size_t kNumCounters = count_instruments(InstrumentKind::counter);
inline constexpr std::size_t kNumGauges = count_instruments(InstrumentKind::gauge);
inline constexpr std::size_t kNumHistograms = count_instruments(InstrumentKind::histogram);
inline constexpr std::size_t kFirstGauge = kNumCounters;
inline constexpr std::size_t kFirstHistogram = kNumCounters + kNumGauges;

/// The kind of instrument `id`, read from its position.
[[nodiscard]] constexpr InstrumentKind instrument_kind(std::size_t id) noexcept {
  return id < kFirstGauge       ? InstrumentKind::counter
         : id < kFirstHistogram ? InstrumentKind::gauge
                                : InstrumentKind::histogram;
}

static_assert(
    [] {
      for (std::size_t id = 0; id < kNumInstruments; ++id) {
        if (kLinkInstruments[id].kind != instrument_kind(id)) return false;
      }
      return true;
    }(),
    "kLinkInstruments: rows must be grouped by kind (counters, gauges, histograms)");

static_assert(
    [] {
      for (std::size_t id = 0; id < kNumInstruments; ++id) {
        const std::string_view name = kLinkInstruments[id].name;
        if (name.empty()) return false;
        for (const char c : name) {
          const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '_' || c == '.';
          if (!ok) return false;
        }
        for (std::size_t other = 0; other < id; ++other) {
          if (name == kLinkInstruments[other].name) return false;
        }
      }
      return true;
    }(),
    "kLinkInstruments: names must be unique [A-Za-z0-9_.]+ identifiers (they are JSONL keys)");

static_assert(
    [] {
      constexpr double kInf = std::numeric_limits<double>::infinity();
      for (const Instrument& i : kLinkInstruments) {
        if (i.kind != InstrumentKind::histogram) continue;
        if (i.edges.size() < 2) return false;
        for (std::size_t e = 0; e < i.edges.size(); ++e) {
          const double v = i.edges[e];
          if (v != v || v == kInf || v == -kInf) return false;
          if (e > 0 && !(i.edges[e - 1] < v)) return false;
        }
      }
      return true;
    }(),
    "kLinkInstruments: histogram edges must be >= 2 finite, strictly increasing values");

/// Deterministic bin routing over edges.size() + 2 bins: NaN -> last bin,
/// v < e0 -> 0 (so -inf routes to underflow), v >= e_last -> edges.size()
/// (so +inf routes to overflow), else the interior bin whose inclusive
/// lower edge is the largest edge <= v — a value exactly on an edge
/// always belongs to the bin it opens.
[[nodiscard]] std::size_t bin_of(std::span<const double> edges, double v) noexcept;

/// Per-shard metric storage for the link schema: plain (non-atomic)
/// slots, single writer.
class MetricsShard {
 public:
  MetricsShard();  ///< every counter and bin 0, every gauge unset

  BHSS_HOT void add(std::size_t id, std::uint64_t n = 1) noexcept;
  BHSS_HOT void set(std::size_t id, double value) noexcept;
  BHSS_HOT void observe(std::size_t id, double value) noexcept;
  /// Add `bins` bin-wise into histogram `id` (deserialization: one pass,
  /// whatever the counts). `bins` must hold histogram(id).size() entries.
  void add_bins(std::size_t id, std::span<const std::uint64_t> bins);

  [[nodiscard]] std::uint64_t counter(std::size_t id) const;
  [[nodiscard]] std::optional<double> gauge(std::size_t id) const;
  [[nodiscard]] const std::vector<std::uint64_t>& histogram(std::size_t id) const;

  /// Fold `other` into this shard (this = this ⊕ other, `other` is the
  /// right operand).
  void merge_from(const MetricsShard& other) noexcept;

  [[nodiscard]] bool operator==(const MetricsShard& other) const;

 private:
  std::array<std::uint64_t, kNumCounters> counters_{};
  std::array<double, kNumGauges> gauge_values_{};
  std::array<bool, kNumGauges> gauge_set_{};
  std::array<std::vector<std::uint64_t>, kNumHistograms> histograms_;
};

}  // namespace bhss::obs
