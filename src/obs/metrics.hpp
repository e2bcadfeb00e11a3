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
/// Instruments are declared once in a `MetricsRegistry` (names, kinds,
/// histogram bin edges); shards from the same registry share its schema,
/// which is what makes their merge well-defined. Recording is O(1) array
/// indexing — no string lookups on the hot path.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/contracts.hpp"

namespace bhss::obs {

enum class InstrumentKind : std::uint8_t { counter, gauge, histogram };

/// Declaration of one named instrument.
struct InstrumentSpec {
  std::string name;
  InstrumentKind kind = InstrumentKind::counter;
  std::vector<double> bin_edges;  ///< histograms only; strictly increasing
};

/// Immutable-after-setup schema shared by every shard of a run. Must
/// outlive the shards created against it.
class MetricsRegistry {
 public:
  /// Register an instrument; returns its id (index into instruments()).
  /// Names must be unique, non-empty identifiers (they become JSONL keys).
  std::size_t add_counter(std::string name);
  std::size_t add_gauge(std::string name);
  /// `edges` must hold >= 2 strictly increasing finite values. Values are
  /// routed to edges.size() + 2 bins: underflow (v < edges.front()),
  /// edges.size() - 1 half-open interior bins [e_i, e_{i+1}), overflow
  /// (v >= edges.back(), including +inf), and a NaN bin — every input,
  /// including non-finite ones, lands in exactly one deterministic bin.
  std::size_t add_histogram(std::string name, std::vector<double> edges);

  [[nodiscard]] const std::vector<InstrumentSpec>& instruments() const noexcept {
    return instruments_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return instruments_.size(); }
  [[nodiscard]] std::optional<std::size_t> find(std::string_view name) const noexcept;

  [[nodiscard]] InstrumentKind kind(std::size_t id) const;
  /// Slot of instrument `id` within its kind's storage array.
  [[nodiscard]] std::size_t slot(std::size_t id) const;
  [[nodiscard]] std::size_t n_counters() const noexcept { return n_counters_; }
  [[nodiscard]] std::size_t n_gauges() const noexcept { return n_gauges_; }
  [[nodiscard]] std::size_t n_histograms() const noexcept { return n_histograms_; }
  /// Total bin count of histogram `id` (interior + underflow/overflow/NaN).
  [[nodiscard]] std::size_t histogram_bins(std::size_t id) const;

  /// Deterministic bin routing (exposed for the property tests):
  /// NaN -> last bin, v < e0 -> 0 (so -inf routes to underflow),
  /// v >= e_last -> edges.size() (so +inf routes to overflow), else the
  /// interior bin whose inclusive lower edge is the largest edge <= v —
  /// a value exactly on an edge always belongs to the bin it opens.
  [[nodiscard]] static std::size_t bin_of(const std::vector<double>& edges, double v) noexcept;

 private:
  std::size_t add(std::string name, InstrumentKind kind, std::vector<double> edges);

  std::vector<InstrumentSpec> instruments_;
  std::vector<std::size_t> slots_;
  std::size_t n_counters_ = 0;
  std::size_t n_gauges_ = 0;
  std::size_t n_histograms_ = 0;
};

/// Per-shard metric storage: plain (non-atomic) slots, single writer.
class MetricsShard {
 public:
  MetricsShard() = default;  ///< unbound; bind() before use
  explicit MetricsShard(const MetricsRegistry* registry) { bind(registry); }

  /// (Re)initialise against `registry` (must outlive the shard); all
  /// values reset to zero / unset.
  void bind(const MetricsRegistry* registry);
  [[nodiscard]] const MetricsRegistry* registry() const noexcept { return registry_; }

  BHSS_HOT void add(std::size_t id, std::uint64_t n = 1) noexcept;
  BHSS_HOT void set(std::size_t id, double value) noexcept;
  BHSS_HOT void observe(std::size_t id, double value) noexcept;
  /// Add `bins` bin-wise into histogram `id` (deserialization: one pass,
  /// whatever the counts). `bins` must hold histogram_bins(id) entries.
  void add_bins(std::size_t id, const std::vector<std::uint64_t>& bins);

  [[nodiscard]] std::uint64_t counter(std::size_t id) const;
  [[nodiscard]] std::optional<double> gauge(std::size_t id) const;
  [[nodiscard]] const std::vector<std::uint64_t>& histogram(std::size_t id) const;

  /// Fold `other` into this shard (this = this ⊕ other, `other` is the
  /// right operand). Both shards must be bound to the same registry.
  void merge_from(const MetricsShard& other);

  [[nodiscard]] bool operator==(const MetricsShard& other) const;

 private:
  const MetricsRegistry* registry_ = nullptr;
  std::vector<std::uint64_t> counters_;
  std::vector<double> gauge_values_;
  std::vector<std::uint8_t> gauge_set_;
  std::vector<std::vector<std::uint64_t>> histograms_;
};

}  // namespace bhss::obs
