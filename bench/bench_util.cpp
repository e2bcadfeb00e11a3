#include "bench_util.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <utility>

namespace bhss::bench {
namespace {

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--packets=N] [--seed=N] [--jnr=dB] [--threads=N] [--shards=N]\n"
               "          [--json=PATH] [--checkpoint=PATH] [--resume=PATH]\n"
               "          [--shard-timeout=S] [--metrics=PATH] [--trace=PATH]\n"
               "          [--worker-id=I --n-workers=N]\n",
               argv0);
}

/// Delete a stale `<path>.tmp` left behind by a killed run (the staging
/// file of the atomic-rename publish). Harmless when absent.
void remove_stale_tmp(const std::string& path) {
  const std::string tmp = path + ".tmp";
  if (std::remove(tmp.c_str()) == 0) {
    std::fprintf(stderr, "bench: removed stale %s from an aborted run\n", tmp.c_str());
  }
}

}  // namespace

const char* build_git_sha() noexcept {
#ifdef BHSS_GIT_SHA
  return BHSS_GIT_SHA;
#else
  return "unknown";
#endif
}

Options parse_options(int argc, char** argv, std::size_t default_packets,
                      double default_jnr_db) {
  Options opt;
  opt.packets = default_packets;
  opt.jnr_db = default_jnr_db;
  const char* argv0 = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view flag = arg.substr(0, eq == std::string_view::npos ? eq : eq + 1);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{} : arg.substr(eq + 1);
    const auto fail = [&](const char* why) {
      std::fprintf(stderr, "%s: %s: %s\n", argv0, argv[i], why);
      print_usage(stderr, argv0);
      std::exit(kExitUsage);
    };
    // Whole-token numbers: from_chars takes no sign on unsigned types and
    // no leading whitespace, and `end` must reach the end of the value.
    const auto count = [&](auto& out) {
      const char* last = value.data() + value.size();
      const auto [end, ec] = std::from_chars(value.data(), last, out);
      if (value.empty() || ec != std::errc{} || end != last) {
        fail("expected a non-negative integer");
      }
    };
    const auto real = [&](double& out, bool non_negative) {
      const char* last = value.data() + value.size();
      const auto [end, ec] = std::from_chars(value.data(), last, out);
      if (value.empty() || ec != std::errc{} || end != last || !std::isfinite(out) ||
          (non_negative && out < 0.0)) {
        fail(non_negative ? "expected a non-negative number" : "expected a finite number");
      }
    };

    if (flag == "--packets=") {
      count(opt.packets);
    } else if (flag == "--seed=") {
      count(opt.seed);
    } else if (flag == "--jnr=") {
      real(opt.jnr_db, false);
    } else if (flag == "--threads=") {
      count(opt.threads);
    } else if (flag == "--shards=") {
      count(opt.shards);
      if (opt.shards == 0) fail("expected a positive shard count");
    } else if (flag == "--json=") {
      opt.json_path = value;
    } else if (flag == "--checkpoint=") {
      opt.checkpoint_path = value;
    } else if (flag == "--resume=") {
      opt.resume_path = value;
    } else if (flag == "--shard-timeout=") {
      real(opt.shard_timeout_s, true);
    } else if (flag == "--metrics=") {
      opt.metrics_path = value;
    } else if (flag == "--trace=") {
      opt.trace_path = value;
    } else if (flag == "--worker-id=") {
      opt.worker = true;
      count(opt.worker_id);
    } else if (flag == "--n-workers=") {
      count(opt.n_workers);
    } else if (arg == "--help") {
      print_usage(stdout, argv0);
      std::exit(0);
    } else {
      fail("unknown argument");
    }
  }
  return opt;
}

// ------------------------------------------------------------- JsonLine

JsonLine& JsonLine::add(const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return raw(key, buf);
}

JsonLine& JsonLine::add(const char* key, std::size_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%zu", value);
  return raw(key, buf);
}

JsonLine& JsonLine::add(const char* key, const char* value) {
  std::string quoted = "\"";
  for (const char* p = value; *p != '\0'; ++p) {
    const char c = *p;
    if (c == '"' || c == '\\') {
      quoted += '\\';
      quoted += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", static_cast<unsigned>(c));
      quoted += esc;
    } else {
      quoted += c;
    }
  }
  quoted += '"';
  return raw(key, quoted.c_str());
}

JsonLine& JsonLine::fragment(const std::string& body) {
  if (body.empty()) return *this;
  if (!body_.empty()) body_ += ",";
  body_ += body;
  return *this;
}

JsonLine& JsonLine::raw(const char* key, const char* value) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"";
  body_ += key;
  body_ += "\":";
  body_ += value;
  return *this;
}

// -------------------------------------------------------------- JsonLog

JsonLog::~JsonLog() {
  if (file_ == nullptr) return;
  std::fclose(file_);
  file_ = nullptr;
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::fprintf(stderr, "bench: cannot publish %s to %s\n", tmp_path_.c_str(),
                 path_.c_str());
  }
}

bool JsonLog::open(const std::string& path) {
  if (path.empty()) return true;
  remove_stale_tmp(path);
  path_ = path;
  tmp_path_ = path + ".tmp";
  file_ = std::fopen(tmp_path_.c_str(), "w");
  return file_ != nullptr;
}

void JsonLog::write(JsonLine line) {
  if (file_ == nullptr) return;
  line.add("schema_version", kSchemaVersion).add("git_sha", build_git_sha());
  write_raw(line.str());
}

void JsonLog::write_raw(const std::string& record) {
  if (file_ == nullptr) return;
  std::fprintf(file_, "%s\n", record.c_str());
  std::fflush(file_);
}

void JsonLog::abandon() {
  if (file_ == nullptr) return;
  std::fclose(file_);
  file_ = nullptr;
}

void JsonLog::discard() {
  abandon();
  if (!tmp_path_.empty()) std::remove(tmp_path_.c_str());
}

// ------------------------------------------------------------- Campaign

Campaign::Campaign(const Options& opt, const char* figure_id)
    : figure_(figure_id), worker_mode_(opt.worker) {
  const std::string& journal_path = opt.journal_path();
  if (worker_mode_ &&
      (journal_path.empty() || opt.n_workers < 1 || opt.worker_id >= opt.n_workers)) {
    refuse("worker mode requires --checkpoint/--resume and --worker-id < --n-workers");
  }

  if (worker_mode_) {
    // Workers never publish — they exist to journal S/O records for the
    // offline merge.
    if (!opt.json_path.empty() || opt.telemetry_enabled()) {
      std::fprintf(stderr, "%s: worker %zu ignores --json/--metrics/--trace\n",
                   figure_.c_str(), opt.worker_id);
    }
  } else {
    // Stage every requested stream before the journal is touched, so a
    // refusal leaves the journal as it was.
    const auto stage = [this](JsonLog& log, const std::string& path) {
      if (log.open(path)) return;
      const char* why = std::strerror(errno);
      refuse("cannot open " + path + ".tmp for writing: " + why);
    };
    stage(log_, opt.json_path);
    if (!opt.json_path.empty()) stage(timing_, opt.json_path + ".timing");
    stage(metrics_log_, opt.metrics_path);
    stage(trace_log_, opt.trace_path);
    if (!opt.metrics_path.empty()) stage(obs_timing_, opt.metrics_path + ".timing");
  }

  if (!journal_path.empty()) {
    remove_stale_tmp(journal_path);
    try {
      journal_.open(journal_path, figure_, static_cast<int>(kSchemaVersion), build_git_sha(),
                    /*resume=*/!opt.resume_path.empty());
    } catch (const std::runtime_error& e) {
      refuse(e.what());
    }
    runtime::CampaignRunner::install_signal_handlers();
    if (journal_.replayed_records() > 0) {
      std::fprintf(stderr, "%s: resuming from %s (%zu journaled units%s)\n",
                   figure_.c_str(), journal_path.c_str(), journal_.replayed_records(),
                   journal_.tail_truncated() ? ", torn tail dropped" : "");
    }
  }
  runtime::distributed::ShardPartition partition;
  if (worker_mode_) partition = {opt.worker_id, opt.n_workers};
  runner_.emplace(
      runtime::CampaignOptions{.n_threads = opt.threads,
                               .n_shards = opt.shards,
                               .shard_timeout_s = opt.shard_timeout_s,
                               .partition = partition},
      journal_.is_open() ? &journal_ : nullptr);

  if (worker_mode_) {
    // Telemetry is ALWAYS collected (collect-only sink) so every journaled
    // shard carries its O record: the publish pass can then honor
    // --metrics/--trace without re-running shards.
    runner_->telemetry_sink = [](const std::string&, const core::SimConfig&,
                                 const core::LinkStats&,
                                 const std::vector<obs::ShardTelemetry>&) {};
  } else if (opt.telemetry_enabled()) {
    runner_->telemetry_sink = [this](const std::string& point_id,
                                     const core::SimConfig& /*cfg*/,
                                     const core::LinkStats& /*merged*/,
                                     const std::vector<obs::ShardTelemetry>& shards) {
      emit_telemetry(point_id, shards);
    };
  }
}

void Campaign::emit(const std::string& point_id, JsonLine line, double wall_s) {
  log_.write(std::move(line));
  if (timing_.enabled()) {
    JsonLine timing;
    timing.add("point", point_id.c_str()).add("wall_s", wall_s);
    timing_.write_raw(timing.str());
  }
}

int Campaign::abandon_resumable() {
  log_.abandon();
  timing_.abandon();
  metrics_log_.abandon();
  trace_log_.abandon();
  obs_timing_.abandon();
  journal_.flush();
  std::fprintf(stderr, "%s: interrupted — journal flushed; rerun with --resume=%s\n",
               figure_.c_str(), journal_.path().c_str());
  return kExitResumable;
}

void Campaign::refuse(const std::string& why) {
  std::fprintf(stderr, "%s: %s\n", figure_.c_str(), why.c_str());
  for (JsonLog* log : {&log_, &timing_, &metrics_log_, &trace_log_, &obs_timing_}) {
    log->discard();
  }
  std::exit(kExitUsage);
}

void Campaign::emit_telemetry(const std::string& point_id,
                              const std::vector<obs::ShardTelemetry>& shards) {
  if (metrics_log_.enabled()) {
    for (std::size_t i = 0; i < shards.size(); ++i) {
      JsonLine line;
      line.add("point", point_id.c_str()).add("shard", i);
      line.fragment(obs::metrics_json_body(shards[i].metrics));
      metrics_log_.write(std::move(line));
    }
    const obs::ShardTelemetry merged = obs::merge_telemetry(shards, shards.size());
    JsonLine line;
    line.add("point", point_id.c_str()).add("shard", "merged");
    line.fragment(obs::metrics_json_body(merged.metrics));
    metrics_log_.write(std::move(line));
    if (obs_timing_.enabled()) {
      JsonLine timing;
      timing.add("point", point_id.c_str());
      timing.fragment(obs::scope_stats_json_body(merged.trace));
      obs_timing_.write_raw(timing.str());
    }
  }
  if (trace_log_.enabled()) {
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const obs::TraceSink& sink = shards[i].trace;
      std::size_t seq = 0;
      for (const obs::TraceEvent& ev : sink.events()) {
        JsonLine line;
        line.add("point", point_id.c_str()).add("shard", i).add("seq", seq++);
        line.fragment(obs::trace_event_json_body(ev));
        trace_log_.write(std::move(line));
      }
      if (sink.dropped() > 0) {
        JsonLine line;
        line.add("point", point_id.c_str()).add("shard", i);
        line.add("event", "ring_overflow")
            .add("dropped", sink.dropped())
            .add("total_recorded", sink.total_recorded());
        trace_log_.write(std::move(line));
      }
    }
  }
}

}  // namespace bhss::bench
