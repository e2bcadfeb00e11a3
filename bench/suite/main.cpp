// End-to-end link benchmark: one workload per process, closed loop with one
// data point in flight at a time. See README.md for the workloads, the
// metrics and how to read the stage ledger.
//
//   bhss_suite --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--smoke] [--goldens PATH] [--workdir DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ledger
// from a separate traced replay. Every data-point run is checked bit for
// bit against the 1-thread run and, when goldens.txt has an entry for
// (workload, seed, packets), against the recorded digest. The end-to-end
// times are scaled to a reference machine by a fixed calibration kernel
// timed around each of them (calibrate.hpp); the plain wall values are
// printed on a '#' line. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "dsp/simd/simd.hpp"
#include "replica.hpp"
#include "runtime/campaign.hpp"
#include "runtime/checkpoint_journal.hpp"
#include "runtime/parallel_link_runner.hpp"
#include "workloads.hpp"

namespace {

namespace core = bhss::core;
namespace runtime = bhss::runtime;
using Clock = std::chrono::steady_clock;

/// Shards per data point: the figure benches' default, and part of the
/// experiment's identity (the merged stats depend on it).
constexpr std::size_t kShards = 16;
constexpr std::size_t kSmokePackets = 16;
constexpr std::size_t kSetupRepsPerPair = 10;
constexpr std::size_t kMinIterations = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string goldens;
  std::string workdir = "build-bench/suite-out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bhss_suite: %s\n"
               "usage: bhss_suite --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "                  [--smoke] [--goldens PATH] [--workdir DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage(("missing value for " + key).c_str());
    }
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (key == "--goldens") {
        a.goldens = value;
      } else if (key == "--workdir") {
        a.workdir = value;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

/// Restrict this process, and every thread it starts later, to the first
/// `n` CPUs it may run on. On a shared host each CPU's speed drifts on its
/// own, so the calibration kernel must run on the CPUs the timed runs use.
void pin_to_cpus(std::size_t n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (int cpu = 0, taken = 0; cpu < CPU_SETSIZE && static_cast<std::size_t>(taken) < n; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++taken;
    }
  }
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) {
    std::fprintf(stderr, "bhss_suite: could not pin to %zu CPUs; running unpinned\n", n);
  }
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Bit-exact fingerprint of a data point's merged LinkStats: every counter
/// and airtime_s, as hex. The fleet counters (worker_*) are left out: no
/// shard ever sets them.
std::string digest(const core::LinkStats& s) {
  std::ostringstream out;
  out << std::hex;
  out << "packets=" << s.packets << ",detected=" << s.detected << ",ok=" << s.ok
      << ",symbol_errors=" << s.symbol_errors << ",total_symbols=" << s.total_symbols
      << ",airtime_s=" << std::bit_cast<std::uint64_t>(s.airtime_s)
      << ",sync_lost=" << s.sync_lost << ",reacquired=" << s.reacquired
      << ",filter_fallback=" << s.filter_fallback
      << ",corrupt_input_rejected=" << s.corrupt_input_rejected
      << ",faults_injected=" << s.faults_injected << ",shard_timeout=" << s.shard_timeout
      << ",shard_retried=" << s.shard_retried << ",adapt_transitions=" << s.adapt_transitions
      << ",adapt_jam_episodes=" << s.adapt_jam_episodes
      << ",adapt_fallbacks=" << s.adapt_fallbacks << ",adapt_recoveries=" << s.adapt_recoveries
      << ",adapt_windows_jammed=" << s.adapt_windows_jammed
      << ",adapt_packets_adapted=" << s.adapt_packets_adapted;
  return out.str();
}

/// Recorded digest for (workload, seed, packets) from a goldens file with
/// lines "<workload> <seed> <packets> <digest>" ('#' starts a comment).
/// Throws when the file cannot be read.
std::optional<std::string> golden_for(const std::string& path, const std::string& workload,
                                      std::uint64_t seed, std::size_t packets) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read goldens file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::uint64_t s = 0;
    std::size_t p = 0;
    std::string d;
    if ((fields >> name >> s >> p >> d) && name == workload && s == seed && p == packets) {
      return d;
    }
  }
  return std::nullopt;
}

struct PointResult {
  core::LinkStats stats;
  double wall_s = 0.0;
  std::uintmax_t journal_bytes = 0;
};

runtime::CampaignOptions campaign_options(std::size_t threads) {
  runtime::CampaignOptions opt;
  opt.n_threads = threads;
  opt.n_shards = kShards;
  return opt;
}

/// Runs the workload's data point at a fixed thread count, the way a user
/// of the library would: ParallelLinkRunner::run, or, for a journaled
/// workload, CampaignRunner::run_point against a fresh CheckpointJournal.
class PointRunner {
 public:
  PointRunner(const suite::Workload& w, std::size_t threads, std::string journal_path)
      : w_(w), threads_(threads), journal_path_(std::move(journal_path)) {
    if (!w_.journaled) runner_.emplace(runtime::RunnerOptions{threads_, kShards});
  }

  PointResult run() {
    PointResult r;
    if (runner_.has_value()) {
      const Clock::time_point t0 = Clock::now();
      r.stats = runner_->run(w_.cfg);
      r.wall_s = seconds_since(t0);
      return r;
    }
    runtime::CheckpointJournal journal;
    journal.open(journal_path_, "bench_suite", 1, "bench", false);
    runtime::CampaignRunner campaign(campaign_options(threads_), &journal);
    const Clock::time_point t0 = Clock::now();
    r.stats = campaign.run_point(w_.name, w_.cfg);
    r.wall_s = seconds_since(t0);
    journal.close();
    r.journal_bytes = std::filesystem::file_size(journal_path_);
    return r;
  }

 private:
  const suite::Workload& w_;
  std::size_t threads_;
  std::string journal_path_;
  std::optional<runtime::ParallelLinkRunner> runner_;
};

/// Wall time to build what a data point needs before its first packet:
/// the runner (and its thread pool) plus every shard's transmitter,
/// receiver, noise source, jammer, fault injector and controller.
double setup_seconds(const suite::Workload& w, std::size_t threads) {
  const Clock::time_point t0 = Clock::now();
  std::optional<runtime::ParallelLinkRunner> runner;
  std::optional<runtime::CampaignRunner> campaign;
  if (w.journaled) {
    campaign.emplace(campaign_options(threads));
  } else {
    runner.emplace(runtime::RunnerOptions{threads, kShards});
  }
  std::vector<std::unique_ptr<suite::ShardSetup>> shards;
  shards.reserve(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    shards.push_back(std::make_unique<suite::ShardSetup>(
        w.cfg, runtime::ParallelLinkRunner::shard_seeds(w.cfg, s)));
  }
  return seconds_since(t0);
}

/// Peak resident set size of one data-point run. Linux lets a process
/// reset its own high-water mark (clear_refs "5"), so each run gets its
/// own peak; the process-lifetime getrusage peak would grow with the
/// number of runs a machine fits into the budget. Falls back to that
/// lifetime peak where the reset is not available.
class PeakRss {
 public:
  void reset() {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.close();
    resettable_ = clear.good();
  }

  [[nodiscard]] double mb() const {
    if (resettable_) {
      std::ifstream status("/proc/self/status");
      std::string line;
      while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
      }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
  }

 private:
  bool resettable_ = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

/// Tallies data-point runs and their bit-exactness checks.
class Checker {
 public:
  explicit Checker(std::optional<std::string> golden) : golden_(std::move(golden)) {}

  /// A run is correct when it matches the golden (if any) and the
  /// reference — the first 1-thread run, which must be recorded first.
  void check(const core::LinkStats& s, const char* what) {
    ++attempted_;
    const std::string d = digest(s);
    bool ok = true;
    if (golden_.has_value() && d != *golden_) {
      std::fprintf(stderr, "bhss_suite: %s run differs from the golden digest\n  got  %s\n"
                           "  want %s\n", what, d.c_str(), golden_->c_str());
      ok = false;
    }
    if (!reference_.has_value()) {
      reference_ = d;
    } else if (d != *reference_) {
      std::fprintf(stderr, "bhss_suite: %s run differs from the 1-thread run\n  got  %s\n"
                           "  want %s\n", what, d.c_str(), reference_->c_str());
      ok = false;
    }
    if (!ok) ++failed_;
  }

  void fail(const char* what, const char* why) {
    ++attempted_;
    ++failed_;
    std::fprintf(stderr, "bhss_suite: %s run failed: %s\n", what, why);
  }

  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::optional<std::string>& reference() const { return reference_; }

 private:
  std::optional<std::string> golden_;
  std::optional<std::string> reference_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// What the timed reps of both modes measured.
struct Reps {
  std::vector<double> wall_t;   ///< T-thread walls
  std::vector<double> wall_1;   ///< 1-thread walls
  std::vector<double> cal_t;    ///< T-lane calibration time around each T-thread wall
  std::vector<double> cal_1;    ///< 1-lane calibration time around each 1-thread wall
  std::vector<double> rss_mb;   ///< peak RSS of each T-thread run
  double airtime_s = 0.0;
  std::uintmax_t journal_bytes = 0;
};

/// Each wall scaled to the reference machine by the kernel time around it.
std::vector<double> normalised(const std::vector<double>& wall, const std::vector<double>& cal) {
  std::vector<double> out(wall.size());
  for (std::size_t i = 0; i < wall.size(); ++i) out[i] = suite::normalised(wall[i], cal[i]);
  return out;
}

/// Run one data point and check it; returns false when it threw.
bool run_checked(PointRunner& runner, Checker& chk, const char* what, PointResult& out) {
  try {
    out = runner.run();
  } catch (const std::exception& e) {
    chk.fail(what, e.what());
    return false;
  }
  chk.check(out.stats, what);
  return true;
}

/// The first 1-thread run becomes the reference; it and one T-thread run
/// are untimed warm-ups (the first runs pay lazy set-up and cold caches).
/// Then T-thread and 1-thread reps alternate, with `between` after each
/// pair, until `budget_s` has passed and at least `min_iter` pairs ran.
/// With a calibrator, the kernel runs at the run's thread count right
/// before and right after each timed run, and the mean of the two times is
/// recorded beside its wall.
Reps measure(PointRunner& multi, PointRunner& single, Checker& chk, std::size_t threads,
             suite::Calibrator* cal, double budget_s, std::size_t min_iter,
             std::size_t max_iter, const std::function<void()>& between) {
  Reps reps;
  PointResult r;
  PeakRss rss;
  const Clock::time_point t0 = Clock::now();
  const auto timed = [&](PointRunner& runner, std::size_t lanes, const char* what,
                         std::vector<double>& walls, std::vector<double>& cals) {
    const double before = cal != nullptr ? cal->seconds(lanes) : 0.0;
    rss.reset();
    if (!run_checked(runner, chk, what, r)) return false;
    const double after = cal != nullptr ? cal->seconds(lanes) : 0.0;
    walls.push_back(r.wall_s);
    cals.push_back(0.5 * (before + after));
    return true;
  };
  run_checked(single, chk, "reference 1-thread", r);
  run_checked(multi, chk, "warm-up", r);
  if (cal != nullptr) cal->seconds(threads);  // the first call allocates and fills its buffers
  for (std::size_t i = 0; i < max_iter && (i < min_iter || seconds_since(t0) < budget_s);
       ++i) {
    if (timed(multi, threads, "T-thread", reps.wall_t, reps.cal_t)) {
      reps.rss_mb.push_back(rss.mb());
      reps.airtime_s = r.stats.airtime_s;
      reps.journal_bytes = r.journal_bytes;
    }
    timed(single, 1, "1-thread", reps.wall_1, reps.cal_1);
    if (between) between();
  }
  return reps;
}

std::vector<Metric> ledger_metrics(const suite::Replay& rp, const Reps& reps,
                                   std::size_t threads, std::size_t packets) {
  const double airtime = rp.stats.airtime_s;
  const auto pkts = static_cast<double>(std::max<std::size_t>(packets, 1));
  auto stage_ns = [&rp](const char* name) {
    std::uint64_t ns = 0;
    for (const suite::Span& s : rp.spans) {
      if (std::strcmp(s.name, name) == 0) ns += s.ns();
    }
    return static_cast<double>(ns);
  };
  auto stage_allocs = [&rp](const char* name, bool bytes) {
    std::uint64_t n = 0;
    for (const suite::Span& s : rp.spans) {
      if (std::strcmp(s.name, name) == 0) n += bytes ? s.alloc_bytes : s.allocs;
    }
    return static_cast<double>(n);
  };
  auto cost = [airtime](double ns) { return airtime > 0.0 ? ns * 1e-9 / airtime : 0.0; };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  std::vector<double> shard_ns;
  std::vector<double> packet_ms;
  for (const suite::Span& s : rp.spans) {
    if (std::strcmp(s.name, "core.shard") == 0) shard_ns.push_back(static_cast<double>(s.ns()));
    if (std::strcmp(s.name, "core.packet") == 0) {
      packet_ms.push_back(static_cast<double>(s.ns()) * 1e-6);
    }
  }
  double shard_total = 0.0;
  double shard_max = 0.0;
  for (const double v : shard_ns) {
    shard_total += v;
    shard_max = std::max(shard_max, v);
  }
  const double shard_mean = ratio(shard_total, static_cast<double>(shard_ns.size()));

  const char* const top_stages[] = {"core.shard_setup", "core.transmit",  "jammer.generate",
                                    "channel.transmit", "fault.apply",    "core.receive",
                                    "adapt.controller"};
  double timed = 0.0;
  for (const char* st : top_stages) timed += stage_ns(st);
  double receive_children = 0.0;
  for (const char* st : {"control_logic.choose_filter", "dsp.filter_apply",
                         "sync.preamble_acquire", "sync.carrier_track", "phy.demod_despread"}) {
    receive_children += stage_ns(st);
  }

  const double wall_t = median(reps.wall_t);
  const double wall_1 = median(reps.wall_1);
  const double rate_t = ratio(pkts, wall_t);
  const double rate_1 = ratio(pkts, wall_1);
  const suite::ReplayCounts& c = rp.counts;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double hops = d(c.hops);

  return {
      {"runtime.scaling_eff", ratio(rate_t, static_cast<double>(threads) * rate_1), "ratio"},
      {"runtime.shard_imbalance", ratio(shard_max, shard_mean), "ratio"},
      {"runtime.journal.bytes_per_shard", d(reps.journal_bytes) / static_cast<double>(kShards),
       "B"},
      {"core.shard_setup.cost", cost(stage_ns("core.shard_setup")), "s/s"},
      {"core.shard_setup.allocs_per_shard",
       ratio(stage_allocs("core.shard_setup", false), static_cast<double>(shard_ns.size())),
       "count"},
      {"core.transmit.cost", cost(stage_ns("core.transmit")), "s/s"},
      {"core.transmit.allocs_per_pkt", stage_allocs("core.transmit", false) / pkts, "count"},
      {"core.receive.cost", cost(stage_ns("core.receive")), "s/s"},
      {"core.receive.self_cost", cost(stage_ns("core.receive") - receive_children), "s/s"},
      {"core.receive.allocs_per_pkt", stage_allocs("core.receive", false) / pkts, "count"},
      {"core.receive.alloc_bytes_per_pkt", stage_allocs("core.receive", true) / pkts, "B"},
      {"core.loop.self_cost", cost(shard_total - timed), "s/s"},
      {"core.per", rp.stats.per(), "ratio"},
      {"core.packet_ms.p50", percentile(packet_ms, 0.5), "ms"},
      {"core.packet_ms.p90", percentile(packet_ms, 0.9), "ms"},
      {"jammer.generate.cost", cost(stage_ns("jammer.generate")), "s/s"},
      {"jammer.generate.allocs_per_pkt", stage_allocs("jammer.generate", false) / pkts, "count"},
      {"channel.transmit.cost", cost(stage_ns("channel.transmit")), "s/s"},
      {"channel.transmit.allocs_per_pkt", stage_allocs("channel.transmit", false) / pkts,
       "count"},
      {"channel.samples_per_pkt", d(c.channel_samples) / pkts, "count"},
      {"channel.computed_bytes_per_pkt", d(c.channel_bytes_computed) / pkts, "B"},
      {"control_logic.choose_filter.cost", cost(stage_ns("control_logic.choose_filter")), "s/s"},
      {"control_logic.hops_per_pkt", hops / pkts, "count"},
      {"control_logic.none_frac", ratio(d(c.filter_none), hops), "ratio"},
      {"control_logic.lowpass_frac", ratio(d(c.filter_lowpass), hops), "ratio"},
      {"control_logic.excision_frac", ratio(d(c.filter_excision), hops), "ratio"},
      {"control_logic.design_cache.hit_ratio",
       ratio(d(c.cache_hits), d(c.cache_hits + c.cache_misses)), "ratio"},
      {"dsp.filter_apply.cost", cost(stage_ns("dsp.filter_apply")), "s/s"},
      {"sync.preamble_acquire.cost", cost(stage_ns("sync.preamble_acquire")), "s/s"},
      {"sync.carrier_track.cost", cost(stage_ns("sync.carrier_track")), "s/s"},
      {"sync.attempts_per_pkt", d(c.sync_attempts) / pkts, "count"},
      {"sync.lock_ratio", ratio(d(c.sync_locks), d(c.sync_attempts)), "ratio"},
      {"phy.demod_despread.cost", cost(stage_ns("phy.demod_despread")), "s/s"},
      {"fault.apply.cost", cost(stage_ns("fault.apply")), "s/s"},
      {"fault.events_per_pkt", d(c.fault_events) / pkts, "count"},
      {"adapt.controller.cost", cost(stage_ns("adapt.controller")), "s/s"},
      {"adapt.packets_adapted_frac", d(rp.stats.adapt_packets_adapted) / pkts, "ratio"},
      {"ledger.coverage", ratio(timed, shard_total), "ratio"},
      {"ledger.trace_overhead", ratio(rp.wall_s, wall_1) - 1.0, "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "bhss_suite: refusing to measure a build without NDEBUG; "
                       "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  const Args args = parse_args(argc, argv);
  suite::Workload w;
  try {
    w = suite::make_workload(args.workload, args.seed, args.smoke ? kSmokePackets : 0);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  const std::size_t nproc = available_cpus();
  const std::size_t threads = std::max<std::size_t>(1, nproc / 2);
  pin_to_cpus(threads);
  const std::size_t packets = w.cfg.n_packets;

  std::optional<std::string> golden;
  if (!args.goldens.empty()) {
    try {
      golden = golden_for(args.goldens, w.name, args.seed, packets);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bhss_suite: %s\n", e.what());
      return 2;
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "bhss_suite: cannot create %s\n", args.workdir.c_str());
    return 2;
  }
  const std::string stem = args.workdir + "/" + w.name + "-seed" + std::to_string(args.seed);

  std::printf("# workload=%s seed=%" PRIu64 " packets=%zu shards=%zu nproc=%zu threads=%zu "
              "isa=%s trace=%d golden=%s\n",
              w.name.c_str(), args.seed, packets, kShards, nproc, threads,
              bhss::dsp::simd::active_isa(), args.trace ? 1 : 0, golden ? "yes" : "none");

  Checker chk(golden);
  std::vector<Metric> metrics;
  PointRunner multi(w, threads, stem + "-multi.journal");
  PointRunner single(w, 1, stem + "-single.journal");

  if (!args.trace) {
    // Set-up reps are spread over the run, between the data-point pairs,
    // so one slow stretch of the machine cannot own their median; like the
    // data-point walls, each batch is scaled by the kernel time around it.
    suite::Calibrator cal;
    std::vector<double> setup;
    std::vector<double> setup_wall;
    const auto setup_reps = [&] {
      std::vector<double> batch;
      const double before = cal.seconds(1);
      for (std::size_t i = 0; i < kSetupRepsPerPair; ++i) {
        batch.push_back(setup_seconds(w, threads));
      }
      const double kernel = 0.5 * (before + cal.seconds(1));
      for (const double s : batch) {
        setup_wall.push_back(s);
        setup.push_back(suite::normalised(s, kernel));
      }
    };
    const Reps reps = measure(multi, single, chk, threads, &cal, args.seconds,
                              args.smoke ? 1 : kMinIterations, args.smoke ? 1 : SIZE_MAX,
                              setup_reps);
    std::printf("# wall (not normalised): packets_per_s=%.6g rtf_1t=%.6g setup_s=%.6g "
                "pairs=%zu calibration_s=%.6g\n",
                static_cast<double>(packets) / median(reps.wall_t),
                reps.airtime_s / median(reps.wall_1), median(setup_wall), reps.wall_1.size(),
                median(reps.cal_1));
    metrics = {
        {"packets_per_s",
         static_cast<double>(packets) / median(normalised(reps.wall_t, reps.cal_t)), "packets/s"},
        {"rtf_1t", reps.airtime_s / median(normalised(reps.wall_1, reps.cal_1)), "s/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", median(reps.rss_mb), "MB"},
    };
  } else {
    // A traced replay follows each untraced pair (the scaling and
    // trace-overhead bases); every replay must reproduce the runner's
    // stats, and the ledger comes from the replay with the median wall.
    std::vector<suite::Replay> replays;
    const auto replay = [&] {
      try {
        replays.push_back(suite::replay_point(w.cfg, kShards));
        chk.check(replays.back().stats, "traced replay");
      } catch (const std::exception& e) {
        chk.fail("traced replay", e.what());
      }
    };
    const Reps reps = measure(multi, single, chk, threads, nullptr, args.seconds,
                              args.smoke ? 1 : 2, args.smoke ? 1 : SIZE_MAX, replay);
    if (!replays.empty()) {
      std::sort(replays.begin(), replays.end(),
                [](const suite::Replay& a, const suite::Replay& b) { return a.wall_s < b.wall_s; });
      const suite::Replay& rp = replays[replays.size() / 2];
      metrics = ledger_metrics(rp, reps, threads, packets);
      const std::string spans_path = stem + ".spans.jsonl";
      if (!suite::write_spans_jsonl(spans_path, rp.spans)) {
        std::fprintf(stderr, "bhss_suite: cannot write %s\n", spans_path.c_str());
      }
    }
  }
  std::filesystem::remove(stem + "-multi.journal", ec);
  std::filesystem::remove(stem + "-single.journal", ec);

  if (chk.reference().has_value()) {
    std::printf("# digest %s %" PRIu64 " %zu %s\n", w.name.c_str(), args.seed, packets,
                chk.reference()->c_str());
  }
  bool correct = chk.failed() == 0;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) correct = false;
    std::printf("%s %s %.17g %s\n", w.name.c_str(), m.name.c_str(), m.value, m.unit);
  }
  if (metrics.empty()) correct = false;

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(chk.attempted()) +
                     ", \"failed\": " + std::to_string(chk.failed()) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
