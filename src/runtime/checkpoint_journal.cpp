#include "runtime/checkpoint_journal.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "core/contracts.hpp"
#include "runtime/journal_format.hpp"

namespace bhss::runtime {
namespace {

std::string shard_key(const JournalKey& key, std::size_t shard) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %016" PRIx64 " %zu", key.params_hash, shard);
  return key.point_id + buf;
}

void require_point_id(const JournalKey& key) {
  BHSS_REQUIRE(journal::valid_point_id(key.point_id),
               "CheckpointJournal: point id must be non-empty, whitespace-free and at most "
               "journal::kMaxPointIdLength bytes");
}

}  // namespace

JournalWriteError::JournalWriteError(const std::string& what)
    : std::runtime_error("CheckpointJournal write failed: " + what +
                         " — the append is NOT durable; treat the tail as torn") {}

CheckpointJournal::~CheckpointJournal() { close(); }

void CheckpointJournal::open(const std::string& path, const std::string& figure_id,
                             int schema_version, const std::string& build_sha, bool resume) {
  BHSS_REQUIRE(!is_open(), "CheckpointJournal: already open");
  BHSS_REQUIRE(!path.empty(), "CheckpointJournal: empty path");
  BHSS_REQUIRE(figure_id.find_first_of(" \t\n") == std::string::npos,
               "CheckpointJournal: figure id must be whitespace-free");
  path_ = path;

  std::ifstream probe(path, std::ios::binary);
  const bool exists = probe.good();
  probe.close();

  if (resume && exists) {
    load_existing(figure_id, schema_version);
    file_ = std::fopen(path.c_str(), "ab");
    if (file_ == nullptr) {
      throw std::runtime_error("CheckpointJournal: cannot reopen " + path + " for append");
    }
    return;
  }

  // Fresh journal: stage the header in <path>.tmp and publish it with an
  // atomic rename, so a crash during creation cannot leave a truncated
  // header at the published path.
  const std::string tmp = path + ".tmp";
  std::FILE* staged = std::fopen(tmp.c_str(), "wb");
  if (staged == nullptr) {
    throw std::runtime_error("CheckpointJournal: cannot create " + tmp);
  }
  const std::string line =
      journal::seal_line(journal::format_header(schema_version, figure_id, build_sha));
  std::fprintf(staged, "%s\n", line.c_str());
  std::fflush(staged);
  ::fsync(::fileno(staged));
  std::fclose(staged);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("CheckpointJournal: cannot publish " + tmp + " to " + path);
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    throw std::runtime_error("CheckpointJournal: cannot reopen " + path + " for append");
  }
}

void CheckpointJournal::load_existing(const std::string& figure_id, int schema_version) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) throw std::runtime_error("CheckpointJournal: cannot read " + path_);

  const auto refuse_format = [this](int version) {
    throw std::runtime_error("CheckpointJournal: " + path_ + " uses journal format v" +
                             std::to_string(version) + ", this build reads v" +
                             std::to_string(journal::kFormatVersion) +
                             " — start a fresh checkpoint");
  };

  std::string line;
  std::size_t valid_end = 0;  // byte offset just past the last valid record
  bool saw_header = false;
  while (std::getline(in, line)) {
    // getline strips the '\n'. A final line without one is a torn append
    // even when its CRC checks out (the cut fell just before the newline):
    // keeping it would glue the next append onto the same line.
    if (in.eof()) break;
    std::string body;
    if (!journal::unseal_line(line, body)) {
      if (const int version = saw_header ? 0 : journal::foreign_format_version(line)) {
        refuse_format(version);
      }
      break;
    }

    if (!saw_header) {
      journal::Header header;
      if (!journal::parse_header(body, header)) {
        throw std::runtime_error("CheckpointJournal: " + path_ + " has no valid header");
      }
      if (header.format_version != journal::kFormatVersion) refuse_format(header.format_version);
      if (header.schema_version != schema_version) {
        throw std::runtime_error(
            "CheckpointJournal: " + path_ + " was written with schema_version " +
            std::to_string(header.schema_version) + ", this build emits " +
            std::to_string(schema_version) +
            " — resumed records would mix schemas; start a fresh checkpoint");
      }
      if (figure_id != header.figure_id) {
        throw std::runtime_error("CheckpointJournal: " + path_ + " belongs to campaign '" +
                                 header.figure_id + "', not '" + figure_id + "'");
      }
      saw_header = true;
    } else {
      journal::RecordHead head;
      if (!journal::parse_record_head(body, head)) break;  // unknown kind: a torn tail
      const JournalKey key{head.point, head.params_hash};
      const char* payload = body.c_str() + head.payload;
      if (head.kind == 'S') {
        core::LinkStats stats;
        if (!journal::parse_stats(payload, stats)) break;
        shards_[shard_key(key, head.shard)] = stats;
      } else if (head.kind == 'O') {
        shard_obs_[shard_key(key, head.shard)] = payload;
      } else if (std::size_t attempts = 0; head.kind == 'Q') {
        if (std::sscanf(payload, "%zu", &attempts) != 1) break;
        quarantined_[shard_key(key, head.shard)] = attempts;
      }
      ++replayed_;
    }
    valid_end += line.size() + 1;
  }

  if (!saw_header) {
    throw std::runtime_error("CheckpointJournal: " + path_ + " has no valid header");
  }

  // Drop a torn tail so the next append starts on a clean line boundary.
  in.close();
  std::uintmax_t size = 0;
  {
    std::ifstream measure(path_, std::ios::binary | std::ios::ate);
    size = static_cast<std::uintmax_t>(measure.tellg());
  }
  if (size > valid_end) {
    tail_truncated_ = true;
    if (::truncate(path_.c_str(), static_cast<off_t>(valid_end)) != 0) {
      throw std::runtime_error("CheckpointJournal: cannot truncate torn tail of " + path_);
    }
  }
}

const core::LinkStats* CheckpointJournal::find_shard(const JournalKey& key,
                                                     std::size_t shard) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = shards_.find(shard_key(key, shard));
  return it == shards_.end() ? nullptr : &it->second;
}

const std::string* CheckpointJournal::find_shard_obs(const JournalKey& key,
                                                     std::size_t shard) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = shard_obs_.find(shard_key(key, shard));
  return it == shard_obs_.end() ? nullptr : &it->second;
}

bool CheckpointJournal::shard_quarantined(const JournalKey& key, std::size_t shard) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return quarantined_.count(shard_key(key, shard)) != 0;
}

void CheckpointJournal::simulate_disk_full_after(std::size_t bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  write_budget_ = bytes;
}

void CheckpointJournal::append_line(const std::string& body) {
  const std::string line = journal::seal_line(body) + "\n";
  BHSS_DEBUG_ASSERT(line.find('\n') == line.size() - 1,
                    "CheckpointJournal: records must be single-line");
  if (file_ == nullptr) return;
  if (write_failed_) {
    throw JournalWriteError("a previous append already failed on " + path_);
  }

  // The durability contract is append → flush → fsync, all checked. Any
  // failure is a typed hard error, never a silent partial append: the
  // caller must not report the work unit as journaled, and whatever
  // half-line landed on disk is exactly the torn tail the CRC scan
  // truncates on the next resume.
  std::size_t writable = line.size();
  bool simulated_full = false;
  if (write_budget_ != kNoWriteBudget) {
    writable = std::min(writable, write_budget_);
    write_budget_ -= writable;
    simulated_full = writable < line.size();
  }
  const std::size_t written =
      writable == 0 ? 0 : std::fwrite(line.data(), 1, writable, file_);
  if (std::fflush(file_) != 0 || written < line.size()) {
    write_failed_ = true;
    ::fsync(::fileno(file_));  // persist the torn prefix; the CRC scan drops it
    const int err = simulated_full ? ENOSPC : errno;
    throw JournalWriteError("short write on " + path_ + " (" + std::to_string(written) +
                            "/" + std::to_string(line.size()) + " bytes, " +
                            std::strerror(err) + ")");
  }
  if (::fsync(::fileno(file_)) != 0) {
    write_failed_ = true;
    throw JournalWriteError("fsync on " + path_ + " (" + std::strerror(errno) + ")");
  }
}

void CheckpointJournal::record_shard(const JournalKey& key, std::size_t shard,
                                     const core::LinkStats& stats,
                                     const std::string* obs_blob) {
  require_point_id(key);
  const std::lock_guard<std::mutex> lock(mutex_);
  char prefix[280];
  if (obs_blob != nullptr) {
    // Telemetry first: a crash between the two lines leaves an O without
    // its S, which resume treats as "shard not journaled" and re-runs.
    BHSS_REQUIRE(obs_blob->find('\n') == std::string::npos,
                 "CheckpointJournal: telemetry blob must be newline-free");
    std::snprintf(prefix, sizeof(prefix), "O %s %016" PRIx64 " %zu ", key.point_id.c_str(),
                  key.params_hash, shard);
    append_line(prefix + *obs_blob);
    shard_obs_[shard_key(key, shard)] = *obs_blob;
  }
  std::snprintf(prefix, sizeof(prefix), "S %s %016" PRIx64 " %zu ", key.point_id.c_str(),
                key.params_hash, shard);
  append_line(prefix + journal::format_stats(stats));
  shards_[shard_key(key, shard)] = stats;
}

void CheckpointJournal::record_quarantine(const JournalKey& key, std::size_t shard,
                                          std::size_t attempts) {
  require_point_id(key);
  const std::lock_guard<std::mutex> lock(mutex_);
  char body[320];
  std::snprintf(body, sizeof(body), "Q %s %016" PRIx64 " %zu %zu", key.point_id.c_str(),
                key.params_hash, shard, attempts);
  append_line(body);
  quarantined_[shard_key(key, shard)] = attempts;
}

void CheckpointJournal::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fflush(file_);
    ::fsync(::fileno(file_));
  }
}

void CheckpointJournal::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fflush(file_);
    ::fsync(::fileno(file_));
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace bhss::runtime
