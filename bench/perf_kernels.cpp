// Microbenchmarks (google-benchmark) of the hot kernels behind the
// experiments: FFT, overlap-save FIR filtering, Welch PSD,
// excision design, chip modulation/demodulation, despreading, a whole
// frame reception, and the per-op cost of the metrics, trace and
// adaptation hot paths. Not a paper figure — these quantify what the
// sample-domain experiments cost and where the time goes. End-to-end
// link timing is bench/suite's job (BENCHMARK.json).
//
// Accepts --json=PATH in addition to the native google-benchmark flags;
// it expands to --benchmark_out=PATH --benchmark_out_format=json so the
// same knob works across all benches (see bench_util.hpp).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numbers>
#include <random>
#include <string>
#include <vector>

#include "adapt/jam_detector.hpp"
#include "channel/link_channel.hpp"
#include "core/control_logic.hpp"
#include "core/receiver.hpp"
#include "core/transmitter.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/psd.hpp"
#include "dsp/simd/scalar_kernels.hpp"
#include "dsp/simd/tiers.hpp"
#include "dsp/utils.hpp"
#include "obs/link_obs.hpp"
#include "phy/chip_table.hpp"
#include "phy/modem.hpp"
#include "phy/spreader.hpp"
#include "sync/correlate.hpp"
#include "sync/costas.hpp"

namespace {

using namespace bhss;

dsp::cvec random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  dsp::cvec x(n);
  for (dsp::cf& v : x) v = dsp::cf{dist(rng), dist(rng)};
  return x;
}

/// One forward transform of the same finite input per iteration: the input
/// is restored from a pristine copy first (an n-sample copy, timed with
/// the transform), since transforming one buffer over and over grows it
/// to Inf/NaN within a few dozen iterations and then times NaN arithmetic.
/// 16384 is the plan size of the 2049-tap jammer shaper and of the
/// 4096-tap excision filters' convolvers.
void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dsp::Fft fft(n);
  const dsp::cvec input = random_signal(n, 1);
  dsp::cvec x(n);
  for (auto _ : state) {
    std::copy(input.begin(), input.end(), x.begin());
    fft.forward(dsp::cspan_mut{x});
    benchmark::DoNotOptimize(x.data());
  }
  if (!dsp::all_finite(dsp::cspan{x})) state.SkipWithError("non-finite FFT output");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(32)->Arg(256)->Arg(1024)->Arg(4096)->Arg(8192)->Arg(16384);

/// The scalar reference of the whole transform (`simd::scalar::fft`: the
/// bit reversal, then `scalar::fft_stages`) on the same input and with
/// twiddle tables of the same values and layout `Fft::forward` uses; the
/// gap to BM_Fft is what dispatch buys.
void BM_FftScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const dsp::cvec input = random_signal(n, 1);
  std::vector<dsp::fvec> tables;
  std::vector<const float*> tw;
  for (std::size_t half = 1; half < n; half <<= 1) {
    dsp::fvec& t = tables.emplace_back(4 * half);
    for (std::size_t k = 0; k < half; ++k) {
      const double angle =
          -2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(2 * half);
      t[2 * k] = t[2 * k + 1] = static_cast<float>(std::cos(angle));
      t[2 * half + 2 * k] = t[2 * half + 2 * k + 1] = static_cast<float>(std::sin(angle));
    }
    tw.push_back(t.data());
  }
  dsp::cvec x(n);
  for (auto _ : state) {
    std::copy(input.begin(), input.end(), x.begin());
    dsp::simd::scalar::fft(x.data(), n, tw.data(), false);
    benchmark::DoNotOptimize(x.data());
  }
  if (!dsp::all_finite(dsp::cspan{x})) state.SkipWithError("non-finite FFT output");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftScalar)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_FirOverlapSave(benchmark::State& state) {
  const auto taps = static_cast<std::size_t>(state.range(0));
  const auto plan = dsp::ConvolverPlan::make(random_signal(taps, 4));
  const dsp::cvec x = random_signal(4096, 5);
  dsp::cvec y(x.size());
  for (auto _ : state) {
    plan->filter(x, 0, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_FirOverlapSave)->Arg(64)->Arg(256)->Arg(1025);

/// Welch estimates of the filter decision, by fft size: 32 over 256
/// samples (the narrowest detection estimate of a short hop, where a
/// kernel that returns with dirty upper vector halves shows), 256 and
/// 2048 over 16384.
void BM_WelchPsd(benchmark::State& state) {
  const auto fft = static_cast<std::size_t>(state.range(0));
  const std::size_t samples = fft == 32 ? 256 : 16384;
  const dsp::cvec x = random_signal(samples, 6);
  for (auto _ : state) {
    auto psd = dsp::welch_psd(x, fft);
    benchmark::DoNotOptimize(psd.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(samples));
}
BENCHMARK(BM_WelchPsd)->Arg(32)->Arg(256)->Arg(2048);

// ------------------------------------------------------------ SIMD kernels
//
// Each vector kernel is benchmarked against its always-built scalar
// reference under the same name prefix, so one JSONL documents the ISA
// speedup on the machine that produced it.

void BM_SimdDespread16(benchmark::State& state) {
  const dsp::cvec pairs = random_signal(16, 13);
  std::vector<float> se(16, 1.0F);
  std::vector<float> so(16, -1.0F);
  const float* cols = phy::ChipTable::instance().columns();
  std::vector<dsp::cf> corr(phy::kNumSymbols);
  for (auto _ : state) {
    dsp::simd::despread_correlate16(pairs.data(), pairs.size(), se.data(), so.data(), cols,
                                    corr.data());
    benchmark::DoNotOptimize(corr.data());
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SimdDespread16);

void BM_ScalarDespread16(benchmark::State& state) {
  const dsp::cvec pairs = random_signal(16, 13);
  std::vector<float> se(16, 1.0F);
  std::vector<float> so(16, -1.0F);
  const float* cols = phy::ChipTable::instance().columns();
  std::vector<dsp::cf> corr(phy::kNumSymbols);
  for (auto _ : state) {
    dsp::simd::scalar::despread_correlate16(pairs.data(), pairs.size(), se.data(), so.data(),
                                            cols, corr.data());
    benchmark::DoNotOptimize(corr.data());
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ScalarDespread16);

// Gaussian noise stream (channel AWGN and every noise jammer), at
// clean_awgn's mean capture of 38 748 samples.
void BM_AwgnGenerate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dsp::simd::Mt19937_64 eng(21);
  dsp::cvec y(n);
  for (auto _ : state) {
    dsp::simd::gaussian_cf(eng, y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AwgnGenerate)->Arg(38748);

void BM_AwgnGenerateScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dsp::simd::Mt19937_64 eng(21);
  dsp::cvec y(n);
  for (auto _ : state) {
    dsp::simd::scalar::gaussian_cf(eng, y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AwgnGenerateScalar)->Arg(38748);

#if defined(BHSS_SIMD_AVX512)
// The AVX-512 bodies themselves, whichever tier the dispatched rows run;
// main registers these rows only where the CPU runs AVX-512.
void BM_AwgnGenerateAvx512(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dsp::simd::Mt19937_64 eng(21);
  dsp::cvec y(n);
  for (auto _ : state) {
    dsp::simd::avx512::gaussian_cf(eng, y.data(), n);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

/// 8192 lags in the 32-lag calls correlate_search makes, without its
/// normalisation walk.
void BM_CorrelateLagsAvx512(benchmark::State& state) {
  const auto n_ref = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kLags = 8192;
  constexpr std::size_t kChunk = 32;
  const dsp::cvec ref = random_signal(n_ref, 14);
  const dsp::cvec x = random_signal(kLags + n_ref, 15);
  dsp::cf corr[kChunk];
  for (auto _ : state) {
    for (std::size_t lag0 = 0; lag0 < kLags; lag0 += kChunk) {
      dsp::simd::avx512::correlate_lags(x.data() + lag0, ref.data(), n_ref, corr, kChunk);
      benchmark::DoNotOptimize(corr);
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kLags));
}
#endif

// ------------------------------------------------------ libm replicas
//
// The rotation phasors and the noise's log, dispatched and reference: the
// receiver's per-sample angles (a phase plus a CFO ramp, |x| < 120) and
// the polar method's r2 in (0, 1].

std::vector<float> rotation_angles(std::size_t n) {
  std::vector<float> a(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = -(1.3F + 0.01F * static_cast<float>(i));
  return a;
}

std::vector<float> polar_radii(std::size_t n) {
  std::vector<float> r(n);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = static_cast<float>(i + 1) / static_cast<float>(n + 1);
  }
  return r;
}

template <void (*Kernel)(const float*, dsp::cf*, std::size_t)>
void sincos_rows(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<float> x = rotation_angles(n);
  dsp::cvec out(n);
  for (auto _ : state) {
    Kernel(x.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

template <void (*Kernel)(const float*, float*, std::size_t)>
void log_rows(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<float> x = polar_radii(n);
  std::vector<float> out(n);
  for (auto _ : state) {
    Kernel(x.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_SincosF32(benchmark::State& state) { sincos_rows<dsp::simd::sincos_f32>(state); }
BENCHMARK(BM_SincosF32)->Arg(4096);

void BM_SincosF32Scalar(benchmark::State& state) {
  sincos_rows<dsp::simd::scalar::sincos_f32>(state);
}
BENCHMARK(BM_SincosF32Scalar)->Arg(4096);

void BM_LogF32(benchmark::State& state) { log_rows<dsp::simd::log_f32>(state); }
BENCHMARK(BM_LogF32)->Arg(4096);

void BM_LogF32Scalar(benchmark::State& state) { log_rows<dsp::simd::scalar::log_f32>(state); }
BENCHMARK(BM_LogF32Scalar)->Arg(4096);

void BM_CorrelateSearch(benchmark::State& state) {
  const auto n_ref = static_cast<std::size_t>(state.range(0));
  const dsp::cvec ref = random_signal(n_ref, 14);
  const dsp::cvec x = random_signal(8192 + n_ref, 15);
  for (auto _ : state) {
    const sync::CorrelationPeak peak = sync::correlate_search(x, ref, 8192);
    benchmark::DoNotOptimize(peak.normalized);
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
// 4096 is the 8-symbol preamble at 16 samples per chip (the narrowest
// paper levels search 8192-32768-sample references); reported, not gated.
BENCHMARK(BM_CorrelateSearch)->Arg(64)->Arg(512)->Arg(4096);

/// A search of 300 lags, which the kernel runs as nine 32-lag blocks and
/// one partial group of twelve: 8 lags plus a masked group of 4.
void BM_CorrelateSearchPartial(benchmark::State& state) {
  const auto n_ref = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kLags = 300;
  const dsp::cvec ref = random_signal(n_ref, 14);
  const dsp::cvec x = random_signal(kLags - 1 + n_ref, 15);
  for (auto _ : state) {
    const sync::CorrelationPeak peak = sync::correlate_search(x, ref, kLags - 1);
    benchmark::DoNotOptimize(peak.normalized);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kLags));
}
BENCHMARK(BM_CorrelateSearchPartial)->Arg(4096);

// ------------------------------------------------------- carrier tracking

/// One receiver hop through the Costas loop: 16384 samples of half-sine
/// QPSK at 8 samples per chip with noise, rotated by a residual-phase
/// ramp and tracked in one pass (a fresh loop per hop, as receive() runs
/// it). The loop is one serial dependency chain per sample.
void BM_CostasTrack(benchmark::State& state) {
  constexpr std::size_t kSps = 8;
  constexpr std::size_t kSamples = 16384;
  std::mt19937 rng(16);
  std::vector<float> chips(kSamples / kSps);
  for (float& c : chips) c = (rng() & 1U) ? 1.0F : -1.0F;
  dsp::cvec hop(kSamples);
  phy::QpskModem::of(kSps).modulate(chips, hop);
  const dsp::cvec noise = random_signal(kSamples, 17);
  for (std::size_t i = 0; i < kSamples; ++i) hop[i] += 0.3F * noise[i];
  const sync::PhaseRamp ramp{0.4, 2e-5, 3000, 1500.5};
  dsp::cvec out(kSamples);
  for (auto _ : state) {
    sync::CostasLoop loop(0.002F);
    loop.track(hop, ramp, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kSamples));
}
BENCHMARK(BM_CostasTrack);

// ------------------------------------------------------ filter-design cache

/// A tone-jammed slice whose hot-bin mask repeats: the second and later
/// designs inside one iteration replay from the cache (steady state is
/// one miss, then hits). The *Uncached variant disables the cache, so the
/// delta is the full design + taps-spectrum FFT the cache saves per hop.
dsp::cvec tone_jammed_slice(std::size_t n) {
  dsp::cvec x = random_signal(n, 18);
  for (std::size_t i = 0; i < n; ++i) {
    const float ph = 2.0F * 3.14159265F * 0.01F * static_cast<float>(i);
    x[i] += dsp::cf{40.0F * std::cos(ph), 40.0F * std::sin(ph)};
  }
  return x;
}

/// The arg is the bandwidth level: at level 0 the design FFT is small and
/// the (uncacheable) PSD estimate dominates the call, so the pair bounds
/// the cache's best case from below; at level 6 the design runs at 4096
/// taps plus a 16k-point taps-spectrum FFT, the work a hit actually skips.
void BM_FilterDesignCached(benchmark::State& state) {
  const auto level = static_cast<std::size_t>(state.range(0));
  const core::BandwidthSet bands = core::BandwidthSet::paper();
  const core::ControlLogic logic({}, bands);
  const dsp::cvec slice = tone_jammed_slice(16384);
  for (auto _ : state) {
    const core::FilterDecision d = logic.force_excision(slice, level);
    benchmark::DoNotOptimize(d.plan->taps.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FilterDesignCached)->Arg(0)->Arg(6);

void BM_FilterDesignUncached(benchmark::State& state) {
  const auto level = static_cast<std::size_t>(state.range(0));
  const core::BandwidthSet bands = core::BandwidthSet::paper();
  core::ControlLogicConfig cfg;
  cfg.design_cache_capacity = 0;
  const core::ControlLogic logic(cfg, bands);
  const dsp::cvec slice = tone_jammed_slice(16384);
  for (auto _ : state) {
    const core::FilterDecision d = logic.force_excision(slice, level);
    benchmark::DoNotOptimize(d.plan->taps.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FilterDesignUncached)->Arg(0)->Arg(6);

void BM_ExcisionDesign(benchmark::State& state) {
  dsp::fvec psd(256, 1.0F);
  for (std::size_t k = 10; k < 20; ++k) psd[k] = 300.0F;
  for (auto _ : state) {
    auto taps = dsp::design_excision_whitening(psd, 0.6);
    benchmark::DoNotOptimize(taps.data());
  }
}
BENCHMARK(BM_ExcisionDesign);

void BM_Modulate(benchmark::State& state) {
  const auto sps = static_cast<std::size_t>(state.range(0));
  const phy::QpskModem modem(sps);
  std::vector<float> chips(1024);
  std::mt19937 rng(7);
  for (float& c : chips) c = (rng() & 1U) ? 1.0F : -1.0F;
  for (auto _ : state) {
    // The output is allocated and zero-filled inside the loop: the work of
    // the rows recorded in BENCH_kernels.json.
    dsp::cvec wave(chips.size() * sps, dsp::cf{0.0F, 0.0F});
    modem.modulate(chips, wave);
    benchmark::DoNotOptimize(wave.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(1024 * sps));
}
BENCHMARK(BM_Modulate)->Arg(2)->Arg(16)->Arg(128);

void BM_DemodulateAndDespread(benchmark::State& state) {
  const auto sps = static_cast<std::size_t>(state.range(0));
  const phy::QpskModem modem(sps);
  phy::Spreader spreader(0x1234);
  std::vector<std::uint8_t> symbols(32);
  for (std::size_t i = 0; i < symbols.size(); ++i) symbols[i] = i % 16;
  std::vector<float> chips(symbols.size() * phy::kChipsPerSymbol);
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    spreader.spread_symbol(symbols[s], std::span<float, phy::kChipsPerSymbol>{
                                           chips.data() + s * phy::kChipsPerSymbol,
                                           phy::kChipsPerSymbol});
  }
  dsp::cvec wave(chips.size() * sps);
  modem.modulate(chips, wave);
  for (auto _ : state) {
    phy::Despreader despreader(0x1234);
    const dsp::cvec pairs = modem.demodulate_pairs(wave, chips.size());
    std::uint32_t acc = 0;
    for (std::size_t s = 0; s < symbols.size(); ++s) {
      acc += despreader
                 .despread_pairs(dsp::cspan{pairs}.subspan(s * 16, 16))
                 .symbol;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(wave.size()));
}
BENCHMARK(BM_DemodulateAndDespread)->Arg(2)->Arg(16)->Arg(128);

void BM_FullFrameReceive(benchmark::State& state) {
  core::SystemConfig sys;
  sys.pattern = core::HopPattern::make(core::HopPatternType::linear,
                                       core::BandwidthSet::paper());
  const core::BhssTransmitter tx(sys);
  const core::BhssReceiver rx(sys);
  channel::AwgnSource noise(8);
  const std::vector<std::uint8_t> payload(8, 0x5A);
  const core::Transmission t = tx.transmit(payload, 1);
  channel::LinkConfig link;
  link.snr_db = 15.0;
  link.tx_delay = 50;
  link.tail_pad = 64;
  const dsp::cvec sig = channel::transmit(t.samples, {}, link, noise);
  for (auto _ : state) {
    auto res = rx.receive(sig, 1, payload.size(), 128);
    benchmark::DoNotOptimize(res.crc_ok);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(sig.size()));
}
BENCHMARK(BM_FullFrameReceive);

// ------------------------------------------------------------ observability

/// Raw cost of one counter bump + one histogram observe on the canonical
/// link schema — the per-site price paid inside the hop loop.
void BM_MetricsShardObserve(benchmark::State& state) {
  obs::MetricsShard shard;
  const obs::LinkIds& ids = obs::link_ids();
  double v = 0.0;
  for (auto _ : state) {
    shard.add(ids.hops);
    shard.observe(ids.est_jammer_bw, v);
    v += 0.001;
    if (v > 1.0) v = 0.0;
    benchmark::DoNotOptimize(shard);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsShardObserve);

/// Raw cost of pushing one POD event into the bounded trace ring
/// (steady-state: the ring is full, every push overwrites the oldest).
void BM_TracePush(benchmark::State& state) {
  obs::TraceSink sink(1024);
  obs::TraceEvent ev;
  ev.type = obs::TraceEventType::hop_decision;
  ev.v0 = 0.25;
  ev.v1 = 0.5;
  for (auto _ : state) {
    ev.hop += 1;
    sink.push(ev);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracePush);

/// Raw cost of the resilience controller's per-packet detector hot path:
/// one note_hop (suspicion bump) plus one note_packet (window update) —
/// the price the closed loop adds per delivered packet before any plan
/// republish happens.
void BM_AdaptDetectorNote(benchmark::State& state) {
  adapt::JamDetector det(adapt::JamDetectorConfig{}, 8);
  std::size_t i = 0;
  for (auto _ : state) {
    det.note_hop(i & 7U, (i & 3U) == 0);
    const adapt::WindowVerdict v = det.note_packet((i & 5U) != 0, false);
    benchmark::DoNotOptimize(v.closed);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdaptDetectorNote);

// --------------------------------------------------- build-flavour guard

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define BHSS_BENCH_SANITIZED 1
#endif
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BHSS_BENCH_SANITIZED 1
#endif

/// "release", "debug", or "sanitizer" — numbers from anything but
/// "release" must never be recorded into BENCH_kernels.json.
const char* build_flavor() {
#if defined(BHSS_BENCH_SANITIZED)
  return "sanitizer";
#elif defined(NDEBUG)
  return "release";
#else
  return "debug";
#endif
}

/// Loudly refuse to let non-release numbers masquerade as perf data. The
/// banner goes to stderr (it must not corrupt --json output on stdout)
/// and the flavour is stamped into the JSON context either way, so
/// scripts/perf_compare.py can reject a mis-built baseline even when the
/// banner scrolled away.
void warn_if_not_release() {
  if (std::strcmp(build_flavor(), "release") == 0) return;
  std::fprintf(stderr,
               "\n"
               "********************************************************************\n"
               "** WARNING: perf_kernels was built as '%s', not 'release'.\n"
               "** These numbers are meaningless for regression gating. Build with\n"
               "** `cmake --preset release` before recording BENCH_kernels.json or\n"
               "** comparing against it: that preset recorded it, and CI gates\n"
               "** with it (see EXPERIMENTS.md).\n"
               "********************************************************************\n"
               "\n",
               build_flavor());
}

}  // namespace

// Custom main: stamp the build flavour + active ISA into the benchmark
// context, rewrite --json=PATH into the native reporter flags, then hand
// over to google-benchmark.
int main(int argc, char** argv) {
  warn_if_not_release();
  benchmark::AddCustomContext("bhss_build_flavor", build_flavor());
  benchmark::AddCustomContext("bhss_simd_isa", bhss::dsp::simd::active_isa());
  // "avx512" where the dispatched correlate_lags and gaussian_cf rows ran
  // their AVX-512 bodies and the *Avx512 rows are registered.
  benchmark::AddCustomContext("bhss_simd_wide_isa", bhss::dsp::simd::wide_isa());
#if defined(BHSS_SIMD_AVX512)
  if (bhss::dsp::simd::avx512_runs()) {
    benchmark::RegisterBenchmark("BM_AwgnGenerateAvx512", BM_AwgnGenerateAvx512)->Arg(38748);
    benchmark::RegisterBenchmark("BM_CorrelateLagsAvx512", BM_CorrelateLagsAvx512)
        ->Arg(512)
        ->Arg(4096);
  }
#endif
  std::vector<std::string> storage;
  storage.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      storage.emplace_back(std::string("--benchmark_out=") + (argv[i] + 7));
      storage.emplace_back("--benchmark_out_format=json");
    } else {
      storage.emplace_back(argv[i]);
    }
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
