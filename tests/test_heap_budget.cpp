// The live heap one lane holds while it runs a packet. This binary replaces
// the global operator new/delete (the idiom of bench/suite/alloc_count.cpp)
// with one that keeps the calling thread's live bytes and their high-water,
// so the budget covers every allocation a shard makes, the jammer's, the
// channel's and the receiver's alike.

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/link_simulator.hpp"
#include "core/transmitter.hpp"

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

}  // namespace
}  // namespace bhss::core
