#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/contracts.hpp"

namespace bhss::obs {

namespace {

bool is(std::size_t id, InstrumentKind kind) noexcept {
  return id < kNumInstruments && instrument_kind(id) == kind;
}

}  // namespace

std::size_t bin_of(std::span<const double> edges, double v) noexcept {
  const std::size_t m = edges.size();
  if (std::isnan(v)) return m + 1;
  if (v < edges.front()) return 0;
  if (v >= edges.back()) return m;
  // First edge strictly greater than v; v >= edges[j-1] so the interior
  // bin opened by edges[j-1] is bin j (bin 0 is underflow).
  const auto it = std::upper_bound(edges.begin(), edges.end(), v);
  return static_cast<std::size_t>(it - edges.begin());
}

MetricsShard::MetricsShard() {
  for (std::size_t h = 0; h < kNumHistograms; ++h) {
    histograms_[h].assign(kLinkInstruments[kFirstHistogram + h].edges.size() + 2, 0);
  }
}

void MetricsShard::add(std::size_t id, std::uint64_t n) noexcept {
  BHSS_DEBUG_ASSERT(is(id, InstrumentKind::counter), "MetricsShard::add: not a counter");
  counters_[id] += n;
}

void MetricsShard::set(std::size_t id, double value) noexcept {
  BHSS_DEBUG_ASSERT(is(id, InstrumentKind::gauge), "MetricsShard::set: not a gauge");
  gauge_values_[id - kFirstGauge] = value;
  gauge_set_[id - kFirstGauge] = true;
}

void MetricsShard::observe(std::size_t id, double value) noexcept {
  BHSS_DEBUG_ASSERT(is(id, InstrumentKind::histogram), "MetricsShard::observe: not a histogram");
  histograms_[id - kFirstHistogram][bin_of(kLinkInstruments[id].edges, value)] += 1;
}

void MetricsShard::add_bins(std::size_t id, std::span<const std::uint64_t> bins) {
  BHSS_REQUIRE(is(id, InstrumentKind::histogram), "MetricsShard::add_bins: not a histogram");
  std::vector<std::uint64_t>& h = histograms_[id - kFirstHistogram];
  BHSS_REQUIRE(bins.size() == h.size(), "MetricsShard::add_bins: bin count mismatch");
  for (std::size_t b = 0; b < h.size(); ++b) h[b] += bins[b];
}

std::uint64_t MetricsShard::counter(std::size_t id) const {
  BHSS_REQUIRE(is(id, InstrumentKind::counter), "MetricsShard::counter: not a counter");
  return counters_[id];
}

std::optional<double> MetricsShard::gauge(std::size_t id) const {
  BHSS_REQUIRE(is(id, InstrumentKind::gauge), "MetricsShard::gauge: not a gauge");
  if (!gauge_set_[id - kFirstGauge]) return std::nullopt;
  return gauge_values_[id - kFirstGauge];
}

const std::vector<std::uint64_t>& MetricsShard::histogram(std::size_t id) const {
  BHSS_REQUIRE(is(id, InstrumentKind::histogram), "MetricsShard::histogram: not a histogram");
  return histograms_[id - kFirstHistogram];
}

void MetricsShard::merge_from(const MetricsShard& other) noexcept {
  for (std::size_t i = 0; i < kNumCounters; ++i) counters_[i] += other.counters_[i];
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    if (other.gauge_set_[i]) {  // rightmost-set-wins
      gauge_values_[i] = other.gauge_values_[i];
      gauge_set_[i] = true;
    }
  }
  for (std::size_t i = 0; i < kNumHistograms; ++i) {
    for (std::size_t b = 0; b < histograms_[i].size(); ++b) {
      histograms_[i][b] += other.histograms_[i][b];
    }
  }
}

bool MetricsShard::operator==(const MetricsShard& other) const {
  if (counters_ != other.counters_ || gauge_set_ != other.gauge_set_ ||
      histograms_ != other.histograms_) {
    return false;
  }
  // Compare gauge values bitwise (a NaN-valued gauge still round-trips).
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    if (!gauge_set_[i]) continue;
    const double a = gauge_values_[i];
    const double b = other.gauge_values_[i];
    if (std::memcmp(&a, &b, sizeof(double)) != 0) return false;
  }
  return true;
}

}  // namespace bhss::obs
