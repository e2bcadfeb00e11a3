// Microbenchmarks (google-benchmark) of the hot kernels behind the
// experiments: FFT, direct vs overlap-save FIR filtering, Welch PSD,
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
#include "dsp/utils.hpp"
#include "obs/link_obs.hpp"
#include "phy/chip_table.hpp"
#include "phy/modulator.hpp"
#include "phy/spreader.hpp"
#include "sync/correlate.hpp"

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
BENCHMARK(BM_Fft)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

/// The scalar reference of the butterfly stages (`simd::scalar::fft_stages`)
/// on the same bit-reversed input and twiddle table `Fft::forward` uses;
/// the gap to BM_Fft, less the permutation, is what dispatch buys.
void BM_FftScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  const dsp::cvec natural = random_signal(n, 1);
  dsp::cvec input(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < bits; ++b) r |= ((i >> b) & 1U) << (bits - 1 - b);
    input[r] = natural[i];
  }
  dsp::cvec tw(n - 1);
  for (std::size_t half = 1; half < n; half <<= 1) {
    for (std::size_t k = 0; k < half; ++k) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k * (n / (2 * half))) /
                           static_cast<double>(n);
      tw[half - 1 + k] =
          dsp::cf(static_cast<float>(std::cos(angle)), static_cast<float>(std::sin(angle)));
    }
  }
  dsp::cvec x(n);
  for (auto _ : state) {
    std::copy(input.begin(), input.end(), x.begin());
    dsp::simd::scalar::fft_stages(x.data(), n, tw.data(), false);
    benchmark::DoNotOptimize(x.data());
  }
  if (!dsp::all_finite(dsp::cspan{x})) state.SkipWithError("non-finite FFT output");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftScalar)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_FirDirect(benchmark::State& state) {
  const auto taps = static_cast<std::size_t>(state.range(0));
  dsp::FirFilter fir{random_signal(taps, 2)};
  const dsp::cvec x = random_signal(4096, 3);
  for (auto _ : state) {
    auto y = fir.process(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_FirDirect)->Arg(16)->Arg(64)->Arg(256);

void BM_FirOverlapSave(benchmark::State& state) {
  const auto taps = static_cast<std::size_t>(state.range(0));
  dsp::FftConvolver conv{dsp::cspan{random_signal(taps, 4)}};
  const dsp::cvec x = random_signal(4096, 5);
  dsp::cvec y;
  for (auto _ : state) {
    conv.filter(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_FirOverlapSave)->Arg(64)->Arg(256)->Arg(1025);

void BM_WelchPsd(benchmark::State& state) {
  const dsp::cvec x = random_signal(16384, 6);
  for (auto _ : state) {
    auto psd = dsp::welch_psd(x, 256);
    benchmark::DoNotOptimize(psd.data());
  }
  state.SetItemsProcessed(state.iterations() * 16384);
}
BENCHMARK(BM_WelchPsd);

// ------------------------------------------------------------ SIMD kernels
//
// Each vector kernel is benchmarked against its always-built scalar
// reference under the same name prefix, so one JSONL documents the ISA
// speedup on the machine that produced it.

void BM_SimdFirBlock(benchmark::State& state) {
  const auto n_taps = static_cast<std::size_t>(state.range(0));
  const dsp::cvec taps = random_signal(n_taps, 11);
  const dsp::cvec x = random_signal(4096 + n_taps - 1, 12);
  dsp::cvec y(4096);
  for (auto _ : state) {
    dsp::simd::fir_filter_block(taps.data(), n_taps, x.data(), y.data(), y.size());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_SimdFirBlock)->Arg(16)->Arg(64)->Arg(256);

void BM_ScalarFirBlock(benchmark::State& state) {
  const auto n_taps = static_cast<std::size_t>(state.range(0));
  const dsp::cvec taps = random_signal(n_taps, 11);
  const dsp::cvec x = random_signal(4096 + n_taps - 1, 12);
  dsp::cvec y(4096);
  for (auto _ : state) {
    dsp::simd::scalar::fir_filter_block(taps.data(), n_taps, x.data(), y.data(), y.size());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ScalarFirBlock)->Arg(16)->Arg(64)->Arg(256);

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
BENCHMARK(BM_CorrelateSearch)->Arg(64)->Arg(512);

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
    benchmark::DoNotOptimize(d.taps.data());
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
    benchmark::DoNotOptimize(d.taps.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FilterDesignUncached)->Arg(0)->Arg(6);

void BM_ExcisionDesign(benchmark::State& state) {
  dsp::fvec psd(256, 1.0F);
  for (std::size_t k = 10; k < 20; ++k) psd[k] = 300.0F;
  for (auto _ : state) {
    auto taps = dsp::design_excision_whitening(psd, 1e-6, 0.6);
    benchmark::DoNotOptimize(taps.data());
  }
}
BENCHMARK(BM_ExcisionDesign);

void BM_Modulate(benchmark::State& state) {
  const auto sps = static_cast<std::size_t>(state.range(0));
  const phy::QpskModulator mod(sps);
  std::vector<float> chips(1024);
  std::mt19937 rng(7);
  for (float& c : chips) c = (rng() & 1U) ? 1.0F : -1.0F;
  for (auto _ : state) {
    auto wave = mod.modulate(chips);
    benchmark::DoNotOptimize(wave.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(1024 * sps));
}
BENCHMARK(BM_Modulate)->Arg(2)->Arg(16)->Arg(128);

void BM_DemodulateAndDespread(benchmark::State& state) {
  const auto sps = static_cast<std::size_t>(state.range(0));
  const phy::QpskModulator mod(sps);
  const phy::QpskDemodulator demod(sps);
  phy::Spreader spreader(0x1234);
  std::vector<std::uint8_t> symbols(32);
  for (std::size_t i = 0; i < symbols.size(); ++i) symbols[i] = i % 16;
  const std::vector<float> chips = spreader.spread(symbols);
  const dsp::cvec wave = mod.modulate(chips);
  for (auto _ : state) {
    phy::Despreader despreader(0x1234);
    const dsp::cvec pairs = demod.demodulate_pairs(wave, chips.size());
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
  obs::MetricsShard shard(&obs::link_registry());
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
               "** These numbers are meaningless for regression gating. Rebuild\n"
               "** with -DCMAKE_BUILD_TYPE=Release (see EXPERIMENTS.md) before\n"
               "** recording BENCH_kernels.json or comparing against it.\n"
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
