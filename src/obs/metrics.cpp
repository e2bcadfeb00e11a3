#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/contracts.hpp"

namespace bhss::obs {

namespace {

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

std::size_t MetricsRegistry::add(std::string name, InstrumentKind kind,
                                 std::vector<double> edges) {
  BHSS_REQUIRE(valid_name(name), "MetricsRegistry: instrument name must be a [A-Za-z0-9_.]+ identifier");
  BHSS_REQUIRE(!find(name).has_value(), "MetricsRegistry: duplicate instrument name");
  if (kind == InstrumentKind::histogram) {
    BHSS_REQUIRE(edges.size() >= 2, "MetricsRegistry: histogram needs >= 2 bin edges");
    for (std::size_t i = 0; i < edges.size(); ++i) {
      BHSS_REQUIRE(std::isfinite(edges[i]), "MetricsRegistry: histogram bin edges must be finite");
      if (i > 0) {
        BHSS_REQUIRE(edges[i - 1] < edges[i],
                     "MetricsRegistry: histogram bin edges must be strictly increasing");
      }
    }
  }
  const std::size_t id = instruments_.size();
  switch (kind) {
    case InstrumentKind::counter: slots_.push_back(n_counters_++); break;
    case InstrumentKind::gauge: slots_.push_back(n_gauges_++); break;
    case InstrumentKind::histogram: slots_.push_back(n_histograms_++); break;
  }
  instruments_.push_back(InstrumentSpec{std::move(name), kind, std::move(edges)});
  return id;
}

std::size_t MetricsRegistry::add_counter(std::string name) {
  return add(std::move(name), InstrumentKind::counter, {});
}

std::size_t MetricsRegistry::add_gauge(std::string name) {
  return add(std::move(name), InstrumentKind::gauge, {});
}

std::size_t MetricsRegistry::add_histogram(std::string name, std::vector<double> edges) {
  return add(std::move(name), InstrumentKind::histogram, std::move(edges));
}

std::optional<std::size_t> MetricsRegistry::find(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < instruments_.size(); ++i) {
    if (instruments_[i].name == name) return i;
  }
  return std::nullopt;
}

InstrumentKind MetricsRegistry::kind(std::size_t id) const {
  BHSS_REQUIRE(id < instruments_.size(), "MetricsRegistry: instrument id out of range");
  return instruments_[id].kind;
}

std::size_t MetricsRegistry::slot(std::size_t id) const {
  BHSS_REQUIRE(id < slots_.size(), "MetricsRegistry: instrument id out of range");
  return slots_[id];
}

std::size_t MetricsRegistry::histogram_bins(std::size_t id) const {
  BHSS_REQUIRE(kind(id) == InstrumentKind::histogram, "MetricsRegistry: not a histogram");
  return instruments_[id].bin_edges.size() + 2;
}

std::size_t MetricsRegistry::bin_of(const std::vector<double>& edges, double v) noexcept {
  const std::size_t m = edges.size();
  if (std::isnan(v)) return m + 1;
  if (v < edges.front()) return 0;
  if (v >= edges.back()) return m;
  // First edge strictly greater than v; v >= edges[j-1] so the interior
  // bin opened by edges[j-1] is bin j (bin 0 is underflow).
  const auto it = std::upper_bound(edges.begin(), edges.end(), v);
  return static_cast<std::size_t>(it - edges.begin());
}

void MetricsShard::bind(const MetricsRegistry* registry) {
  BHSS_REQUIRE(registry != nullptr, "MetricsShard: null registry");
  registry_ = registry;
  counters_.assign(registry->n_counters(), 0);
  gauge_values_.assign(registry->n_gauges(), 0.0);
  gauge_set_.assign(registry->n_gauges(), 0);
  histograms_.clear();
  histograms_.reserve(registry->n_histograms());
  for (const InstrumentSpec& spec : registry->instruments()) {
    if (spec.kind == InstrumentKind::histogram) {
      histograms_.emplace_back(spec.bin_edges.size() + 2, 0);
    }
  }
}

void MetricsShard::add(std::size_t id, std::uint64_t n) noexcept {
  BHSS_DEBUG_ASSERT(registry_ != nullptr && registry_->kind(id) == InstrumentKind::counter,
                    "MetricsShard::add: not a counter");
  counters_[registry_->slot(id)] += n;
}

void MetricsShard::set(std::size_t id, double value) noexcept {
  BHSS_DEBUG_ASSERT(registry_ != nullptr && registry_->kind(id) == InstrumentKind::gauge,
                    "MetricsShard::set: not a gauge");
  const std::size_t s = registry_->slot(id);
  gauge_values_[s] = value;
  gauge_set_[s] = 1;
}

void MetricsShard::observe(std::size_t id, double value) noexcept {
  BHSS_DEBUG_ASSERT(registry_ != nullptr && registry_->kind(id) == InstrumentKind::histogram,
                    "MetricsShard::observe: not a histogram");
  const std::size_t s = registry_->slot(id);
  histograms_[s][MetricsRegistry::bin_of(registry_->instruments()[id].bin_edges, value)] += 1;
}

void MetricsShard::add_bins(std::size_t id, const std::vector<std::uint64_t>& bins) {
  BHSS_REQUIRE(registry_ != nullptr && registry_->kind(id) == InstrumentKind::histogram,
               "MetricsShard::add_bins: not a histogram");
  std::vector<std::uint64_t>& h = histograms_[registry_->slot(id)];
  BHSS_REQUIRE(bins.size() == h.size(), "MetricsShard::add_bins: bin count mismatch");
  for (std::size_t b = 0; b < h.size(); ++b) h[b] += bins[b];
}

std::uint64_t MetricsShard::counter(std::size_t id) const {
  BHSS_REQUIRE(registry_ != nullptr && registry_->kind(id) == InstrumentKind::counter,
               "MetricsShard::counter: not a counter");
  return counters_[registry_->slot(id)];
}

std::optional<double> MetricsShard::gauge(std::size_t id) const {
  BHSS_REQUIRE(registry_ != nullptr && registry_->kind(id) == InstrumentKind::gauge,
               "MetricsShard::gauge: not a gauge");
  const std::size_t s = registry_->slot(id);
  if (gauge_set_[s] == 0) return std::nullopt;
  return gauge_values_[s];
}

const std::vector<std::uint64_t>& MetricsShard::histogram(std::size_t id) const {
  BHSS_REQUIRE(registry_ != nullptr && registry_->kind(id) == InstrumentKind::histogram,
               "MetricsShard::histogram: not a histogram");
  return histograms_[registry_->slot(id)];
}

void MetricsShard::merge_from(const MetricsShard& other) {
  BHSS_REQUIRE(registry_ != nullptr && registry_ == other.registry_,
               "MetricsShard::merge_from: shards must share one registry");
  for (std::size_t i = 0; i < counters_.size(); ++i) counters_[i] += other.counters_[i];
  for (std::size_t i = 0; i < gauge_values_.size(); ++i) {
    if (other.gauge_set_[i] != 0) {  // rightmost-set-wins
      gauge_values_[i] = other.gauge_values_[i];
      gauge_set_[i] = 1;
    }
  }
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    for (std::size_t b = 0; b < histograms_[i].size(); ++b) {
      histograms_[i][b] += other.histograms_[i][b];
    }
  }
}

bool MetricsShard::operator==(const MetricsShard& other) const {
  if (registry_ != other.registry_) return false;
  if (counters_ != other.counters_ || gauge_set_ != other.gauge_set_ ||
      histograms_ != other.histograms_) {
    return false;
  }
  // Compare gauge values bitwise (a NaN-valued gauge still round-trips).
  for (std::size_t i = 0; i < gauge_values_.size(); ++i) {
    if (gauge_set_[i] == 0) continue;
    const double a = gauge_values_[i];
    const double b = other.gauge_values_[i];
    if (std::memcmp(&a, &b, sizeof(double)) != 0) return false;
  }
  return true;
}

}  // namespace bhss::obs
