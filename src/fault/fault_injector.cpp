#include "fault/fault_injector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "channel/impairments.hpp"
#include "core/shared_random.hpp"

namespace bhss::fault {
namespace {

/// Stream id for the burst-noise sample RNG (distinct from the planning
/// stream so adding draws to one can never shift the other).
constexpr std::uint64_t kBurstNoiseStream = 0xFB;

/// One circularly-symmetric complex Gaussian sample of total power
/// `power`, drawn via Box-Muller from the shared random source (keeps all
/// randomness reproducible from a single seed, and identical across
/// platforms unlike std::normal_distribution).
dsp::cf gaussian_sample(core::SharedRandom& rng, double power) {
  const double u1 = std::max(rng.uniform(), 1e-12);
  const double u2 = rng.uniform();
  const double r = std::sqrt(-2.0 * std::log(u1)) * std::sqrt(power / 2.0);
  const double theta = 2.0 * std::numbers::pi * u2;
  return {static_cast<float>(r * std::cos(theta)), static_cast<float>(r * std::sin(theta))};
}

}  // namespace

FaultLog FaultInjector::apply(const FaultPlan& plan, dsp::cvec& capture,
                              const obs::LinkObs& o) const {
  BHSS_TRACE_SCOPE(o.sink(), obs::TraceScopeId::fault_inject);
  FaultLog log;
  if (plan.events.empty()) return log;

  core::SharedRandom noise_rng(
      core::SharedRandom::split_seed(config_.seed, kBurstNoiseStream, plan.packet_index));

  std::uint32_t ordinal = 0;
  for (const FaultEvent& ev : plan.events) {
    if (capture.empty()) break;
    const std::size_t offset = std::min(ev.offset, capture.size() - 1);
    if (o) {
      o.record({.type = obs::TraceEventType::fault_applied,
                .flag = static_cast<std::uint8_t>(ev.kind), .hop = ordinal,
                .packet = plan.packet_index, .v0 = static_cast<double>(offset),
                .v1 = static_cast<double>(ev.length), .v2 = ev.magnitude});
    }
    ++ordinal;
    switch (ev.kind) {
      case FaultKind::jammer_burst: {
        const std::size_t end = std::min(offset + ev.length, capture.size());
        const double power = std::pow(10.0, ev.magnitude / 10.0);
        for (std::size_t i = offset; i < end; ++i) {
          capture[i] += gaussian_sample(noise_rng, power);
        }
        ++log.bursts;
        break;
      }
      case FaultKind::gain_step: {
        const std::size_t end = std::min(offset + ev.length, capture.size());
        const auto gain = static_cast<float>(ev.magnitude);
        for (std::size_t i = offset; i < end; ++i) capture[i] *= gain;
        ++log.fades;
        break;
      }
      case FaultKind::sample_drop: {
        const std::size_t end = std::min(offset + ev.length, capture.size());
        capture.erase(capture.begin() + static_cast<std::ptrdiff_t>(offset),
                      capture.begin() + static_cast<std::ptrdiff_t>(end));
        ++log.drops;
        break;
      }
      case FaultKind::sample_dup: {
        const std::size_t end = std::min(offset + ev.length, capture.size());
        const dsp::cvec repeat(capture.begin() + static_cast<std::ptrdiff_t>(offset),
                               capture.begin() + static_cast<std::ptrdiff_t>(end));
        capture.insert(capture.begin() + static_cast<std::ptrdiff_t>(end), repeat.begin(),
                       repeat.end());
        ++log.dups;
        break;
      }
      case FaultKind::clock_jump: {
        // Integer part: the receiver's sample counter slips, so everything
        // from `offset` on arrives `length` samples late (zeros fill the
        // gap). Fractional part: a sampling-phase step over the whole
        // remainder, via the channel's fractional-delay interpolator.
        capture.insert(capture.begin() + static_cast<std::ptrdiff_t>(offset), ev.length,
                       dsp::cf{0.0F, 0.0F});
        if (ev.magnitude > 0.0) {
          const dsp::cspan tail{capture.data() + offset, capture.size() - offset};
          const dsp::cvec delayed = channel::apply_fractional_delay(tail, ev.magnitude);
          capture.resize(offset);
          capture.insert(capture.end(), delayed.begin(), delayed.end());
        }
        ++log.clock_jumps;
        break;
      }
      case FaultKind::cfo_step: {
        const auto step = static_cast<float>(ev.magnitude);
        dsp::cf osc{1.0F, 0.0F};
        const dsp::cf rot{std::cos(step), std::sin(step)};
        for (std::size_t i = offset; i < capture.size(); ++i) {
          capture[i] *= osc;
          osc *= rot;
          if ((i - offset) % 4096 == 4095) {
            const float mag = std::abs(osc);
            if (mag > 0.0F) osc /= mag;
          }
        }
        ++log.cfo_steps;
        break;
      }
      case FaultKind::corrupt: {
        const std::size_t end = std::min(offset + ev.length, capture.size());
        const float word = ev.magnitude < 0.5
                               ? std::numeric_limits<float>::quiet_NaN()
                               : std::numeric_limits<float>::infinity();
        for (std::size_t i = offset; i < end; ++i) capture[i] = {word, word};
        ++log.corruptions;
        break;
      }
    }
  }
  return log;
}

}  // namespace bhss::fault
