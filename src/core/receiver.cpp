#include "core/receiver.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"
#include "core/transmitter.hpp"
#include "dsp/utils.hpp"
#include "phy/frame.hpp"
#include "phy/modem.hpp"
#include "phy/spreader.hpp"
#include "sync/costas.hpp"

namespace bhss::core {
namespace {

constexpr float kSyncThreshold = 0.18F;  ///< preamble acceptance threshold

// Bounded re-acquisition (SystemConfig::max_sync_attempts): each retry
// widens the lag window and decays the acceptance threshold.
constexpr double kLagWiden = 2.0;         ///< search-window growth factor per retry
constexpr float kThresholdDecay = 0.75F;  ///< acceptance-threshold decay per retry
constexpr float kMinThreshold = 0.08F;    ///< floor the decayed threshold clamps to

/// CFAR-style validation for retry acquisitions only: a peak accepted
/// below the nominal threshold must also stand this far above the
/// correlation noise floor (mean normalised magnitude over the searched
/// lags). Pure noise over K lags peaks near sqrt(2 ln K) ~ 3-3.5x its
/// own floor, so 4.5 rejects lucky noise while a real (even badly
/// degraded) preamble clears it comfortably.
constexpr float kMinMargin = 4.5F;

/// Normalised loop bandwidth of the decision-directed Costas loop after
/// the suppression filter (§6.1). It tracks residual carrier
/// phase/frequency; under unfiltered strong jamming it loses lock, which
/// is part of the paper's measured effect.
constexpr float kCostasBandwidth = 0.002F;

}  // namespace

BhssReceiver::BhssReceiver(SystemConfig config)
    : config_(std::move(config)), logic_(config_.logic, config_.pattern.bands()) {}

FilterDecision BhssReceiver::choose_filter(dsp::cspan slice, std::size_t bw_index,
                                           const obs::LinkObs& o) const {
  // A NaN/Inf sample reaching the PSD estimator poisons the whole filter
  // decision (every Welch bin becomes NaN, eq. (3) taps become NaN, and
  // the frame decodes to uniformly random symbols) without any error
  // surfacing — reject it at the boundary instead.
  BHSS_REQUIRE(dsp::all_finite(slice),
               "BhssReceiver: non-finite samples at the filter-selection boundary");
  BHSS_REQUIRE(bw_index < config_.pattern.bands().size(),
               "BhssReceiver: bandwidth index outside the hop pattern's band set");
  switch (config_.filter_policy) {
    case FilterPolicy::adaptive:
      return logic_.decide(slice, bw_index, o);
    case FilterPolicy::off:
      return FilterDecision{};
    case FilterPolicy::always_lowpass:
      return logic_.force_lowpass(bw_index);
    case FilterPolicy::always_excision:
      return logic_.force_excision(slice, bw_index, o);
  }
  return FilterDecision{};
}

dsp::cvec BhssReceiver::filtered_slice(dsp::cspan buffer, std::size_t a0, std::size_t needed,
                                       const FilterDecision& decision, obs::TraceSink* trace) {
  BHSS_TRACE_SCOPE(trace, obs::TraceScopeId::filter_apply);
  BHSS_REQUIRE(decision.plan != nullptr, "filtered_slice: the decision carries no filter");

  // Filter from a lead-in (so the filter is warmed up by real samples
  // where they exist) and read the group-delay-compensated samples aligned
  // with a0; every designed filter delays by K/2 samples. The input stops
  // at in_len samples, zero past the capture's end: a block that read real
  // samples beyond it would change the bits. The decision carries the
  // shared convolution plan: no taps FFT here.
  const dsp::ConvolverPlan& plan = *decision.plan;
  const std::size_t k_taps = plan.taps.size();
  const std::size_t lead = std::min(a0, k_taps);
  const std::size_t begin = std::min(a0 - lead, buffer.size());
  const std::size_t in_len = lead + needed + k_taps;
  dsp::cvec out(needed);
  plan.filter(buffer.subspan(begin, std::min(in_len, buffer.size() - begin)),
              lead + k_taps / 2, out);
  BHSS_ENSURE(dsp::all_finite(dsp::cspan{out}),
              "BhssReceiver: suppression filter produced non-finite samples");
  return out;
}

RxResult BhssReceiver::receive(dsp::cvec capture, std::uint64_t frame_counter,
                               std::size_t payload_len, std::size_t search_window,
                               std::size_t genie_frame_start, const obs::LinkObs& o,
                               const HopOverride& ov) const {
  BHSS_TRACE_SCOPE(o.sink(), obs::TraceScopeId::receive);
  RxResult result;

  // Mirror the transmitter's per-frame derivations (including any
  // adaptation-layer override — both ends hold the same plan).
  const std::size_t total_symbols = phy::FrameSpec::total_symbols(payload_len);
  const FramePlan plan = plan_frame(config_, frame_counter, total_symbols, ov);
  const HopSchedule& schedule = plan.schedule;

  // Front-end boundary: a corrupted capture (NaN/Inf words from a faulted
  // or saturated ADC) must not reach the PSD estimator or the correlators
  // — one bad sample poisons every downstream statistic. Scrub such
  // samples to zero (an erasure the despreader absorbs) and record the
  // rejection instead of refusing the whole frame.
  for (dsp::cf& s : capture) {
    if (!std::isfinite(s.real()) || !std::isfinite(s.imag())) {
      s = dsp::cf{0.0F, 0.0F};
      result.input_scrubbed = true;
    }
  }
  std::size_t frame_start = genie_frame_start;

  if (config_.sync == SyncMode::preamble) {
    // Regenerate the clean preamble waveform from shared knowledge (the
    // preamble symbols are fixed, the scrambler and the schedule come
    // from the shared random source).
    const std::vector<std::uint8_t> preamble_syms(phy::FrameSpec::preamble_symbols, 0);
    const sync::PreambleSync unfiltered(BhssTransmitter::modulate_symbols(
        preamble_syms, preamble_syms.size(), schedule, plan.scrambler_seed));
    const dsp::cvec& reference = unfiltered.reference();

    // Bounded re-acquisition state machine. Attempt 1 is the paper's
    // chain (Fig. 6): decide a filter from the acquisition window, apply
    // it to both the window and the reference so the correlation stays
    // matched and the group delays cancel, then search [0, search_window].
    // A transient that desynchronises the link — a clock glitch pushing
    // the frame beyond the search window, a sync-targeting burst drowning
    // the correlation peak — fails that attempt; instead of declaring the
    // frame lost, retry with a geometrically widened lag window and a
    // decayed threshold, and back off for good after max_sync_attempts,
    // classifying the frame as sync_lost (never decoding garbage).
    const std::size_t max_attempts = std::max<std::size_t>(config_.max_sync_attempts, 1);
    std::optional<sync::SyncEstimate> est;
    double lag_scale = 1.0;
    float threshold = kSyncThreshold;
    for (std::size_t attempt = 0; attempt < max_attempts && !est.has_value(); ++attempt) {
      const std::size_t max_lag = std::min(
          capture.size(),
          static_cast<std::size_t>(static_cast<double>(search_window) * lag_scale));
      const std::size_t window_len =
          std::min(capture.size(), max_lag + reference.size() + 2 * kPsdFft);
      const dsp::cspan window = dsp::cspan{capture}.first(window_len);
      const FilterDecision decision =
          choose_filter(window, schedule.segments.front().bw_index, o);
      if (decision.degenerate_psd) ++result.filter_fallbacks;

      // With a filter, the window and the reference are filtered straight
      // from the capture; without one, both are searched as they are.
      dsp::cvec filtered_window;
      std::optional<sync::PreambleSync> filtered;
      if (decision.kind != FilterDecision::Kind::none) {
        filtered_window.resize(window.size());
        decision.plan->filter(window, 0, filtered_window);
        dsp::cvec filtered_reference(reference.size());
        decision.plan->filter(reference, 0, filtered_reference);
        filtered.emplace(std::move(filtered_reference));
      }
      const dsp::cspan sync_window = filtered ? dsp::cspan{filtered_window} : window;
      const sync::PreambleSync& acquirer = filtered ? *filtered : unfiltered;
      est = acquirer.acquire(sync_window, max_lag, threshold, o.sink());
      ++result.sync_attempts;
      // A retry runs with a lowered threshold over a widened window, where
      // the largest of K pure-noise lags can clear the bar. Retry peaks
      // must therefore also beat the CFAR margin over the correlation
      // noise floor; the first attempt keeps the paper's single-threshold
      // behaviour untouched.
      const float peak_quality = est.has_value() ? est->quality : 0.0F;
      const float peak_margin = est.has_value() ? est->margin : 0.0F;
      std::uint8_t outcome = est.has_value() ? 1 : 0;  // miss/lock/cfar_reject
      if (attempt > 0 && est.has_value() && est->margin < kMinMargin) {
        est.reset();
        outcome = 2;
      }
      if (o) {
        o.record({.type = obs::TraceEventType::sync_attempt, .flag = outcome,
                  .hop = static_cast<std::uint32_t>(attempt), .packet = frame_counter,
                  .v0 = static_cast<double>(threshold), .v1 = static_cast<double>(max_lag),
                  .v2 = static_cast<double>(peak_quality),
                  .v3 = static_cast<double>(peak_margin)});
      }
      if (est.has_value()) {
        // Second pass: regression over the preamble tightens phase and
        // CFO so the per-hop carrier tracking starts inside its pull-in
        // range even for long (narrow-bandwidth) frames.
        *est = acquirer.refine(sync_window, *est, o.sink());
      } else {
        lag_scale *= kLagWiden;
        threshold = std::max(kMinThreshold, threshold * kThresholdDecay);
      }
    }
    if (!est.has_value()) {
      result.sync_lost = true;  // bounded back-off exhausted
      if (o) {
        o.record({.type = obs::TraceEventType::sync_loss,
                  .hop = static_cast<std::uint32_t>(result.sync_attempts),
                  .packet = frame_counter});
      }
      return result;
    }
    result.reacquired = result.sync_attempts > 1;
    result.sync = *est;
    result.frame_detected = true;
    frame_start = est->frame_start;
    sync::PreambleSync::derotate(dsp::cspan_mut{capture}, *est);
    if (o) {
      o.record({.type = obs::TraceEventType::sync_lock, .flag = result.reacquired,
                .hop = static_cast<std::uint32_t>(result.sync_attempts), .packet = frame_counter,
                .v0 = static_cast<double>(est->frame_start), .v1 = static_cast<double>(est->phase),
                .v2 = static_cast<double>(est->cfo), .v3 = static_cast<double>(est->quality),
                .v4 = static_cast<double>(est->margin)});
    }
  } else {
    result.frame_detected = true;
  }

  // Per-hop: decide filter, filter, track carrier, demodulate, despread.
  phy::Despreader despreader(plan.scrambler_seed);
  result.symbols.reserve(total_symbols);
  result.hops.reserve(schedule.segments.size());

  // Decision-directed residual phase/CFO model, updated from the complex
  // despreading correlations of each healthy hop. The preamble estimate
  // alone cannot anchor the carrier over arbitrarily long frames (its CFO
  // error, extrapolated over 100k+ samples, exceeds the pull-in range of
  // the tracking loop); the despread correlations provide unambiguous
  // per-hop phase measurements with the full processing gain behind them.
  double model_phase = 0.0;   // residual phase at t_anchor [rad]
  double model_cfo = 0.0;     // residual CFO [rad/sample]
  double t_anchor = 0.0;      // frame time of the anchor [samples]
  bool have_measurement = false;

  for (const HopSegment& seg : schedule.segments) {
    const std::size_t a0 = frame_start + seg.start_sample;
    const std::size_t needed = seg.n_samples;

    // Jammer estimation on the raw (unfiltered) slice of this hop.
    const std::size_t avail = (a0 < capture.size()) ? capture.size() - a0 : 0;
    const dsp::cspan raw_slice{capture.data() + std::min(a0, capture.size()),
                               std::min(needed, avail)};
    FilterDecision decision;
    if (!raw_slice.empty()) {
      decision = choose_filter(raw_slice, seg.bw_index, o);
    }
    result.hops.push_back({seg.bw_index, decision.kind, decision.degenerate_psd});
    if (decision.degenerate_psd) ++result.filter_fallbacks;
    if (o) {
      // The decision plus every eq. (10)/(3)/(4) threshold term the control
      // logic compared against — enough to replay *why* this filter was picked.
      const double signal_frac = config_.pattern.bands().bandwidth_frac(seg.bw_index);
      o.record({.type = obs::TraceEventType::hop_decision,
                .flag = static_cast<std::uint8_t>(
                    decision.degenerate_psd ? 3 : static_cast<int>(decision.kind)),
                .bw_index = static_cast<std::uint16_t>(seg.bw_index),
                .hop = static_cast<std::uint32_t>(result.hops.size() - 1), .packet = frame_counter,
                .v0 = decision.est_jammer_bw_frac, .v1 = kExcisionMatchGuard * signal_frac,
                .v2 = decision.inband_peak_over_median_db, .v3 = kPeakOverMedianDb,
                .v4 = decision.oob_to_inband_level_db,
                .v5 = dsp::linear_to_db(kOobLevelRatio)});
    }

    // The predicted residual rotation for this hop.
    const sync::PhaseRamp ramp{model_phase, model_cfo, seg.start_sample, t_anchor};

    // Carrier tracking runs after the suppression filter and before the
    // matched filter, exactly as in the paper's chain (§6.1): without the
    // filter, a strong jammer drives the loop out of lock — a large part
    // of why unfiltered spread spectrum collapses under jamming. The loop
    // is re-anchored per hop on the phase model, so a slip inside one
    // badly jammed hop cannot poison the rest of the frame. It removes the
    // model's rotation in the same pass; an unfiltered hop is read straight
    // from the capture, zero past its end. When the excision filter has
    // notched out the spectral core, the waveform no longer matches the
    // decision-directed QPSK model and the loop would wander; carrier
    // tracking is bypassed there (the rotation alone is applied) and the
    // despread-level phase feedback carries the hop instead.
    sync::CostasLoop costas(kCostasBandwidth);
    const bool filtered = decision.kind != FilterDecision::Kind::none;
    const bool track_carrier = decision.kind != FilterDecision::Kind::excision;
    dsp::cvec clean =
        filtered ? filtered_slice(capture, a0, needed, decision, o.sink()) : dsp::cvec(needed);
    if (track_carrier) {
      BHSS_TRACE_SCOPE(o.sink(), obs::TraceScopeId::carrier_track);
      costas.track(filtered ? dsp::cspan{clean} : raw_slice, ramp, clean);
    } else {
      dsp::rotate(clean, [&ramp](std::size_t i) { return ramp.angle(i); });
    }

    BHSS_TRACE_SCOPE(o.sink(), obs::TraceScopeId::demod_despread);
    const dsp::cvec pairs = phy::QpskModem::of(seg.sps).demodulate_pairs(clean, seg.n_chips());

    dsp::cf corr_sum{0.0F, 0.0F};
    std::size_t healthy = 0;
    for (std::size_t s = 0; s < seg.n_symbols; ++s) {
      const auto chunk = dsp::cspan{pairs}.subspan(s * phy::kChipsPerSymbol / 2,
                                                   phy::kChipsPerSymbol / 2);
      const phy::DespreadPairsResult r = despreader.despread_pairs(chunk);
      result.symbols.push_back(r.symbol);
      if (r.coherence > 0.7F) {
        corr_sum += r.correlation;
        ++healthy;
      }
    }

    // Update the residual model from this hop only when nearly all of its
    // symbols decoded with high coherence and the implied correction is
    // small — a jammed hop (whose decisions, and hence phases, cannot be
    // trusted) is skipped and the model coasts on its CFO estimate.
    if (4 * healthy >= 3 * seg.n_symbols && std::abs(corr_sum) > 0.0F) {
      const double theta =
          static_cast<double>(std::arg(corr_sum)) +
          (track_carrier ? static_cast<double>(costas.phase()) : 0.0);
      if (std::abs(theta) < 0.7) {
        const double t_mid = static_cast<double>(seg.start_sample) +
                             static_cast<double>(seg.n_samples) / 2.0;
        const double predicted = model_phase + model_cfo * (t_mid - t_anchor);
        if (have_measurement && t_mid > t_anchor + 1.0) {
          const double slope =
              std::clamp(0.7 * theta / (t_mid - t_anchor), -2e-5, 2e-5);
          model_cfo = std::clamp(model_cfo + slope, -5e-4, 5e-4);
        }
        model_phase = predicted + theta;
        t_anchor = t_mid;
        have_measurement = true;
      }
    }
  }

  // Frame parsing: SFD + length + CRC decide packet success.
  if (auto payload = phy::parse_frame_symbols(result.symbols); payload.has_value()) {
    if (payload->size() == payload_len) {
      result.crc_ok = true;
      result.payload = std::move(*payload);
    }
  }
  return result;
}

}  // namespace bhss::core
