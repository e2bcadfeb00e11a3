#pragma once

/// @file replica.hpp
/// Traced replay of a data point, timed from outside the program.
///
/// One thread walks the shards in ascending order with the runner's own
/// `shard_seeds`/`shard_range` and replays `core::run_link_shard`'s packet
/// loop from public calls, in the program's order:
///   transmit -> jammer generate -> channel::transmit -> fault plan+apply
///   -> receive -> resilience controller.
/// Each call becomes a span (name, start/end ns, parent, shard, packet id;
/// the packet id is the request id) with the calling thread's allocation
/// counts. `receive()` gets a TraceSink: its scope totals, diffed around
/// the call, become aggregate child spans of the receive span. The replay
/// must reproduce the runner's LinkStats bit for bit; the caller checks.

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "adapt/resilience_controller.hpp"
#include "channel/awgn.hpp"
#include "core/link_simulator.hpp"
#include "core/receiver.hpp"
#include "core/shared_random.hpp"
#include "core/transmitter.hpp"
#include "fault/fault_injector.hpp"
#include "jammer/duty_cycle_jammer.hpp"
#include "jammer/noise_jammer.hpp"
#include "jammer/reactive_jammer.hpp"

namespace suite {

/// The jammers the workloads use, built and driven the way
/// run_link_shard drives them. Throws std::invalid_argument for any other
/// JammerSpec kind.
class JammerBox {
 public:
  JammerBox(const bhss::core::JammerSpec& spec, const bhss::core::BandwidthSet& bands);

  [[nodiscard]] bhss::dsp::cvec waveform(const bhss::core::Transmission& tx,
                                         const bhss::core::BandwidthSet& bands,
                                         std::size_t delay, std::size_t total_len);

 private:
  std::variant<std::monostate, bhss::jammer::NoiseJammer, bhss::jammer::ReactiveJammer,
               bhss::jammer::DutyCycleJammer>
      jammer_;
};

/// Everything one shard builds before its first packet.
struct ShardSetup {
  ShardSetup(const bhss::core::SimConfig& cfg, const bhss::core::ShardSeeds& seeds);

  bhss::core::BhssTransmitter tx;
  bhss::core::BhssReceiver rx;
  bhss::channel::AwgnSource noise;
  bhss::core::SharedRandom channel_rng;
  JammerBox jammer;
  bhss::fault::FaultInjector injector;
  std::optional<bhss::adapt::ResilienceController> ctrl;
};

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;  ///< since the replay started
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;    ///< index into the span vector; -1 = root
  std::uint32_t shard = 0;
  std::int64_t packet = -1;    ///< global packet index (request id); -1 = none
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  bool aggregate = false;      ///< summed scope time, laid end to end
  [[nodiscard]] std::uint64_t ns() const noexcept { return end_ns - start_ns; }
};

/// Counts observed at the layer boundaries during the replay.
struct ReplayCounts {
  std::uint64_t hops = 0;
  std::uint64_t filter_none = 0;
  std::uint64_t filter_lowpass = 0;
  std::uint64_t filter_excision = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t sync_attempts = 0;
  std::uint64_t sync_locks = 0;
  std::uint64_t fault_events = 0;
  std::uint64_t channel_samples = 0;        ///< channel output samples
  std::uint64_t channel_bytes_computed = 0; ///< 8 B x (tx + jammer + output samples)
};

struct Replay {
  bhss::core::LinkStats stats;  ///< merged in ascending shard order
  std::vector<Span> spans;
  ReplayCounts counts;
  double wall_s = 0.0;          ///< the whole replay, merge included
};

/// Replay the data point `cfg` over `n_shards` shards on the calling thread.
[[nodiscard]] Replay replay_point(const bhss::core::SimConfig& cfg, std::size_t n_shards);

/// Write spans as JSON lines. Returns false when the file cannot be written.
[[nodiscard]] bool write_spans_jsonl(const std::string& path, const std::vector<Span>& spans);

}  // namespace suite
