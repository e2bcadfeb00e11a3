// The live heap one lane holds while it runs a packet. This binary replaces
// the global operator new/delete (the idiom of bench/suite/alloc_count.cpp)
// with one that keeps the calling thread's live bytes and their high-water,
// so the budget covers every allocation a shard makes, the jammer's, the
// channel's and the receiver's alike.

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "core/link_simulator.hpp"
#include "core/transmitter.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"

namespace {

thread_local std::size_t t_live = 0;
thread_local std::size_t t_high = 0;

void* counted_alloc(std::size_t n, std::size_t align) {
  if (n == 0) n = 1;
  for (;;) {
    void* p = nullptr;
    if (align <= alignof(std::max_align_t)) {
      // BHSS_ANALYZE_SUPPRESS(raw-allocation): this is the global operator new itself
      p = std::malloc(n);
    } else if (posix_memalign(&p, align, n) != 0) {
      p = nullptr;
    }
    if (p != nullptr) {
      t_live += malloc_usable_size(p);
      if (t_live > t_high) t_high = t_live;
      return p;
    }
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  t_live -= malloc_usable_size(p);
  // BHSS_ANALYZE_SUPPRESS(raw-allocation): this is the global operator delete itself
  std::free(p);
}

void* counted_alloc_nothrow(std::size_t n, std::size_t align) noexcept {
  try {
    return counted_alloc(n, align);
  } catch (...) {
    return nullptr;
  }
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { release(p); }

namespace bhss::core {
namespace {

TEST(HeapBudget, TransmitHoldsOneFrame) {
  // One frame at the paper's narrowest level in one 1024-symbol hop: the
  // transmitter modulates each hop straight into the frame, so what it
  // holds beyond the frame it returns is the frame's symbols and schedule.
  const BandwidthSet bands = BandwidthSet::paper();
  SystemConfig sys;
  sys.pattern = HopPattern::fixed(bands, bands.narrowest_index());
  sys.symbols_per_hop = 1024;
  const BhssTransmitter tx(sys);
  const std::vector<std::uint8_t> payload(6);
  // The first frame builds the process-wide chip table.
  ASSERT_EQ(tx.transmit(payload, 0).schedule.segments.size(), 1U);
  const std::size_t live_before = t_live;
  t_high = t_live;
  const Transmission t = tx.transmit(payload, 1);
  const std::size_t high_water = t_high - live_before;
  const std::size_t frame_bytes = t.samples.size() * sizeof(dsp::cf);
  ASSERT_GT(frame_bytes, std::size_t{100'000} * sizeof(dsp::cf));
  EXPECT_LT(4 * high_water, 5 * frame_bytes)
      << "transmit high-water " << high_water << " B = "
      << static_cast<double>(high_water) / static_cast<double>(frame_bytes)
      << " frames of " << frame_bytes << " B";
}

TEST(HeapBudget, NarrowestFrameHoldsUnderThreeFrames) {
  // The Fig. 14 point at the paper's narrowest level (0.156 MHz at
  // 20 MS/s): a 6-byte frame is about 115 k samples, and the 1/128 noise
  // jammer sits on it, at a power the receiver still locks under, so the
  // packet runs the whole chain. Every whole-packet waveform (the frame,
  // the jammer, the capture, the hop's filtered slice) is that long, so
  // the lane's high-water counts how many of them are alive at once.
  const BandwidthSet bands = BandwidthSet::paper();
  SimConfig cfg;
  cfg.system.pattern = HopPattern::fixed(bands, bands.narrowest_index());
  cfg.system.symbols_per_hop = 1024;
  cfg.payload_len = 6;
  cfg.jammer.kind = JammerSpec::Kind::fixed_bandwidth;
  cfg.jammer.bandwidth_frac = bands.bandwidth_frac(bands.narrowest_index());
  cfg.jnr_db = 0.0;
  cfg.snr_db = 15.0;
  ASSERT_DOUBLE_EQ(cfg.jammer.bandwidth_frac, 1.0 / 128);

  // The capture is the frame plus at most 16 + max_delay + 64 samples of
  // delay and tail; the budget counts the frame alone.
  const std::size_t frame_bytes =
      BhssTransmitter(cfg.system).transmit(std::vector<std::uint8_t>(cfg.payload_len), 0)
          .samples.size() *
      sizeof(dsp::cf);
  ASSERT_GT(frame_bytes, std::size_t{100'000} * sizeof(dsp::cf));

  // The first packet builds what every lane shares and keeps for the
  // process (the low-pass memo, the FFT plans) and this thread's filter
  // scratch; the budget is for what a lane holds per packet.
  const ShardSeeds seeds{1, 2, 3};
  ASSERT_EQ(run_link_shard(cfg, 0, 1, seeds).detected, 1U);
  const std::size_t live_before = t_live;
  t_high = t_live;
  const LinkStats stats = run_link_shard(cfg, 1, 1, seeds);
  const std::size_t high_water = t_high - live_before;
  EXPECT_EQ(stats.detected, 1U);
  EXPECT_LT(high_water, 3 * frame_bytes)
      << "lane high-water " << high_water << " B = "
      << static_cast<double>(high_water) / static_cast<double>(frame_bytes)
      << " frames of " << frame_bytes << " B";
}

TEST(HeapBudget, FftTablesGrowLessThanPerSizePlans) {
  // The twiddle tables are process-wide, one per stage, and a stage's
  // values do not depend on the transform size, so a new size adds only
  // its top stage's table: n/2 twiddles at 16 B, 8 B per point. A
  // per-size plan of a bit-reversal swap list (n/2 pairs of 32-bit
  // indices reserved, 4 B per point) and n - 1 twiddles at 8 B held
  // 12 B per point. Built in ascending order, as a link builds them (its
  // Welch estimates start at 32 points), every size must build its table
  // and cost no more than that, and all of them together less than their
  // per-size plans. The tables outlive every test, so the sizes are
  // measured in a fresh process (the binary re-run for this test alone),
  // never after another test has built them.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        const dsp::Fft smallest(2);
        bool ok = true;
        std::size_t total = 0;
        std::size_t per_size_plans = 0;
        for (std::size_t n = 4; n <= 16384; n *= 2) {
          const std::size_t live_before = t_live;
          t_high = t_live;
          const dsp::Fft fft(n);
          const std::size_t grown = t_high - live_before;
          const std::size_t plan_bytes = (n / 2) * 8 + (n - 1) * 8;
          if (grown == 0 || grown > plan_bytes) {
            std::fprintf(stderr, "n=%zu grew %zu B, per-size plan %zu B\n", n, grown, plan_bytes);
            ok = false;
          }
          total += grown;
          per_size_plans += plan_bytes;
        }
        if (total >= per_size_plans) {
          std::fprintf(stderr, "tables %zu B, per-size plans %zu B\n", total, per_size_plans);
          ok = false;
        }
        std::exit(ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(HeapBudget, FirstFilterOnAThreadHoldsOnlyItsBlockScratch) {
  // The noise jammer's 2049-tap shaper runs 16384-point blocks. On a
  // fresh thread, the first filter call raises the heap high-water by the
  // thread's scratch alone: the FFT block and the taps - 1 inputs kept for
  // the next block. The transform runs in place and takes no buffer of
  // its own; the slack is the allocator's page rounding of the scratch.
  const auto plan = dsp::lowpass_plan(2049, 0.1);
  ASSERT_EQ(plan->fft_size, 16384U);
  const dsp::cvec x(256, dsp::cf{1.0F, -1.0F});
  dsp::cvec y(x.size());
  std::size_t high_water = 0;
  std::thread([&] {
    t_high = t_live;
    const std::size_t live_before = t_live;
    plan->filter(x, 0, y);
    high_water = t_high - live_before;
  }).join();
  const std::size_t scratch = (plan->fft_size + plan->taps.size() - 1) * sizeof(dsp::cf);
  EXPECT_GE(high_water, scratch);
  EXPECT_LE(high_water, scratch + 4096) << "first filter high-water " << high_water << " B";
}

}  // namespace
}  // namespace bhss::core
