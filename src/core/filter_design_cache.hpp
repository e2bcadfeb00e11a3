#pragma once

/// @file filter_design_cache.hpp
/// Per-receiver cache of excision filter designs, keyed by the *decision*
/// that produced them rather than by the raw PSD estimate.
///
/// The template-notch excision path quantises the estimated PSD to a
/// binary per-bin verdict (jammed / clean) before handing it to the
/// eq. (3) design, so the resulting taps — and the convolution plan built
/// from them — are a pure function of (bandwidth level, jammed-bin mask).
/// Two hops that classify the same bins as jammed get bit-identical taps
/// whether the design is recomputed or replayed from the cache, which is
/// what makes the cache *behaviour-neutral by construction*: LinkStats
/// and telemetry are unchanged, only the design work is skipped.
///
/// The cache is deliberately per-receiver (per shard), not process-wide:
/// no locks on the hot path, and shard results stay byte-identical
/// regardless of thread count or kill-and-resume splits (the shard-merge
/// contract of `merge_point_results`).
///
/// Mirrors the FFT plan cache in spirit; unlike it, hit/miss counts are
/// exported through `src/obs` (LinkIds::filter_cache_{hits,misses}).

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/contracts.hpp"
#include "dsp/fir.hpp"
#include "dsp/types.hpp"

namespace bhss::core {

/// What the excision design depends on: the bandwidth level (which fixes
/// the design FFT size and passband) and the dilated jammed-bin mask.
struct FilterDesignKey {
  std::size_t bw_index = 0;
  std::size_t n_bins = 0;                ///< design FFT size (mask bit count)
  std::vector<std::uint64_t> mask;       ///< jammed-bin bitmask, bin k = bit k
  bool operator==(const FilterDesignKey&) const = default;
};

struct FilterDesignKeyHash {
  std::size_t operator()(const FilterDesignKey& k) const noexcept {
    // FNV-1a over the key words; cheap and deterministic across runs.
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    mix(k.bw_index);
    mix(k.n_bins);
    for (std::uint64_t w : k.mask) mix(w);
    return static_cast<std::size_t>(h);
  }
};

/// Exact-key design cache with deterministic flush-when-full eviction.
/// A completed design is its shared frequency-domain convolution plan,
/// which holds the taps (so a cache hit also skips the per-hop
/// taps-spectrum FFT, the expensive part). Capacity 0 disables caching
/// (find always misses, nothing is stored).
class FilterDesignCache {
 public:
  using Plan = std::shared_ptr<const dsp::ConvolverPlan>;

  explicit FilterDesignCache(std::size_t capacity) : capacity_(capacity) {}

  /// Lookup; bumps the hit/miss counter. Returns null on miss.
  [[nodiscard]] BHSS_HOT Plan find(const FilterDesignKey& key) const {
    if (capacity_ == 0) return nullptr;
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    return it->second;
  }

  /// Store a design. When the cache is full it is flushed entirely first —
  /// a deterministic policy (no recency state), so a resumed campaign
  /// replays the same hit/miss sequence as an uninterrupted one.
  void insert(FilterDesignKey key, Plan plan) {
    if (capacity_ == 0) return;
    if (map_.size() >= capacity_) map_.clear();
    map_.emplace(std::move(key), std::move(plan));
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::size_t capacity_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  std::unordered_map<FilterDesignKey, Plan, FilterDesignKeyHash> map_;
};

}  // namespace bhss::core
