#include "jammer/reactive_jammer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

namespace bhss::jammer {

std::size_t closest_bw_index(std::span<const double> bws, double bw) {
  BHSS_REQUIRE(!bws.empty(), "closest_bw_index: need at least one bandwidth");
  std::size_t best = 0;
  double best_dist = std::abs(std::log(bws[0]) - std::log(bw));
  for (std::size_t i = 1; i < bws.size(); ++i) {
    const double d = std::abs(std::log(bws[i]) - std::log(bw));
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  return best;
}

std::size_t widest_bw_index(std::span<const double> bws) noexcept {
  return static_cast<std::size_t>(
      std::distance(bws.begin(), std::max_element(bws.begin(), bws.end())));
}

std::vector<NoiseJammer> noise_bank(std::span<const double> bws, std::uint64_t seed) {
  std::vector<NoiseJammer> bank;
  bank.reserve(bws.size());
  for (std::size_t i = 0; i < bws.size(); ++i) {
    bank.emplace_back(bws[i], seed * 0xD1B54A32D192ED03ULL + i + 1);
  }
  return bank;
}

ReactiveJammer::ReactiveJammer(std::vector<double> available_bws, std::size_t reaction_delay,
                               std::uint64_t seed, std::size_t estimation_samples)
    : available_bws_(std::move(available_bws)),
      reaction_delay_(reaction_delay),
      estimation_samples_(estimation_samples) {
  BHSS_REQUIRE(!available_bws_.empty(), "ReactiveJammer: need at least one bandwidth");
  sources_ = noise_bank(available_bws_, seed);
  current_bw_index_ = widest_bw_index(available_bws_);
}

dsp::cvec ReactiveJammer::generate(std::span<const ObservedHop> hops, std::size_t n) {
  for (std::size_t i = 1; i < hops.size(); ++i) {
    BHSS_REQUIRE(hops[i].start >= hops[i - 1].start,
                 "ReactiveJammer: observed hops must be sorted ascending by start");
  }

  // The last matched bandwidth persists until the first delayed
  // observation of this transmission kicks in.
  const std::size_t idle = current_bw_index_;

  // Build the jammer's own switching timeline: each *estimable* hop takes
  // effect estimation_samples + reaction_delay samples after it started.
  // A hop that dwells for fewer than estimation_samples ends before the
  // estimate completes, so the jammer never reacts to it at all — the
  // degenerate dwell-shorter-than-latency case resolves deterministically
  // to "unseen" instead of an instant reaction.
  struct Segment {
    std::size_t start;
    std::size_t bw_index;
  };
  std::vector<Segment> timeline;
  timeline.reserve(hops.size() + 1);
  timeline.push_back({0, idle});
  std::size_t last_estimated = idle;
  bool any_estimated = false;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const std::size_t hop_end = (i + 1 < hops.size()) ? hops[i + 1].start : n;
    const std::size_t dwell = hop_end > hops[i].start ? hop_end - hops[i].start : 0;
    if (dwell < estimation_samples_) continue;
    const std::size_t bw_index = closest_bw_index(available_bws_, hops[i].bandwidth_frac);
    timeline.push_back({hops[i].start + estimation_samples_ + reaction_delay_, bw_index});
    last_estimated = bw_index;
    any_estimated = true;
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const Segment& a, const Segment& b) { return a.start < b.start; });

  // Each segment runs from its own start (the first from 0) to the next
  // one's, the last to n; a segment that a later one at the same sample
  // replaces writes nothing.
  dsp::cvec out(n);
  std::size_t pos = 0;
  for (std::size_t i = 0; i < timeline.size() && pos < n; ++i) {
    const std::size_t seg_end =
        (i + 1 < timeline.size()) ? std::min<std::size_t>(timeline[i + 1].start, n) : n;
    if (seg_end <= pos) continue;
    sources_[timeline[i].bw_index].fill(dsp::cspan_mut{out}.subspan(pos, seg_end - pos));
    pos = seg_end;
  }
  // The jammer eventually reacts to the last thing it *finished
  // estimating*, even when that reaction lands after this transmission
  // ended (it then carries the stale bandwidth into the next one). Hops
  // it never estimated leave no residue.
  if (any_estimated) current_bw_index_ = last_estimated;
  return out;
}

}  // namespace bhss::jammer
