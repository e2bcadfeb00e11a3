#include "runtime/distributed/journal_merge.hpp"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <tuple>

#include "runtime/journal_format.hpp"

namespace bhss::runtime::distributed {
namespace {

// Canonical sort key. Kind ranks put a shard's telemetry blob (O)
// immediately before its stats (S) — the order record_shard writes them.
enum KindRank : int { kObs = 0, kStats = 1, kQuarantine = 2 };

struct RecordKey {
  std::string point;
  std::uint64_t hash = 0;
  std::size_t shard = 0;
  int rank = kStats;

  bool operator<(const RecordKey& other) const {
    return std::tie(point, hash, shard, rank) <
           std::tie(other.point, other.hash, other.shard, other.rank);
  }
};

struct Record {
  std::string body;    ///< full unsealed record body (what gets resealed)
  std::size_t source = 0;  ///< index into the input list (for diagnostics)
  bool from_base = false;
};

struct ParsedInput {
  journal::Header header;
  std::vector<std::pair<RecordKey, Record>> records;
  bool torn = false;
};

// Split one record body into its canonical key. Throws for bodies that
// unsealed cleanly but make no sense as any known record kind (a valid
// CRC guarantees the bytes are what was written, so this is a foreign or
// future-format file, not rot).
RecordKey classify(const std::string& body, const std::string& path) {
  journal::RecordHead head;
  if (!journal::parse_record_head(body, head)) {
    throw JournalMergeError("unknown record kind in " + path + ": '" + body.substr(0, 32) +
                            "...'");
  }
  const int rank = head.kind == 'O' ? kObs : head.kind == 'S' ? kStats : kQuarantine;
  return {head.point, head.params_hash, head.shard, rank};
}

// Read one journal: verify the header, collect the valid CRC prefix and
// note whether the tail was torn. Mirrors CheckpointJournal::load_existing
// but never mutates the input file.
ParsedInput read_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw JournalMergeError("cannot read " + path);

  ParsedInput parsed;
  std::string line;
  bool saw_header = false;
  bool clean_end = true;
  while (std::getline(in, line)) {
    const bool had_newline = !in.eof();
    std::string body;
    if (!journal::unseal_line(line, body) || !had_newline) {
      if (const int version = saw_header ? 0 : journal::foreign_format_version(line)) {
        throw JournalMergeError(path + " uses journal format v" + std::to_string(version) +
                                ", this build reads v" +
                                std::to_string(journal::kFormatVersion));
      }
      // A final line without its newline is a torn append even when the
      // CRC happens to validate (the write was cut mid-line).
      clean_end = false;
      break;
    }
    if (!saw_header) {
      if (!journal::parse_header(body, parsed.header)) {
        throw JournalMergeError(path + " has no valid journal header");
      }
      saw_header = true;
      continue;
    }
    parsed.records.emplace_back(classify(body, path), Record{body, 0, false});
  }
  if (!saw_header) throw JournalMergeError(path + " has no valid journal header");
  parsed.torn = !clean_end || in.peek() != std::ifstream::traits_type::eof();
  return parsed;
}

void require_same_header(const journal::Header& ref, const journal::Header& got,
                         const std::string& ref_path, const std::string& path) {
  if (got.format_version != ref.format_version) {
    throw JournalMergeError("format version mismatch: " + path + " is v" +
                            std::to_string(got.format_version) + ", " + ref_path +
                            " is v" + std::to_string(ref.format_version));
  }
  if (got.schema_version != ref.schema_version) {
    throw JournalMergeError("schema version mismatch: " + path + " has schema=" +
                            std::to_string(got.schema_version) + ", " + ref_path +
                            " has schema=" + std::to_string(ref.schema_version));
  }
  if (got.figure_id != ref.figure_id) {
    throw JournalMergeError("figure mismatch: " + path + " belongs to '" + got.figure_id +
                            "', " + ref_path + " to '" + ref.figure_id + "'");
  }
  if (got.build_sha != ref.build_sha) {
    throw JournalMergeError("build mismatch: " + path + " was written by git=" +
                            got.build_sha + ", " + ref_path + " by git=" + ref.build_sha +
                            " — cross-binary determinism is not guaranteed");
  }
}

}  // namespace

MergeReport merge_journals(const std::vector<std::string>& inputs,
                           const std::string& out_path, const std::string& base) {
  if (inputs.empty() && base.empty()) {
    throw JournalMergeError("no input journals");
  }

  MergeReport report;
  std::map<RecordKey, Record> merged;          // canonical order by construction
  std::map<std::string, std::uint64_t> point_hash;  // point id -> params hash

  std::string ref_path;
  journal::Header ref_header;

  const auto fold_one = [&](const std::string& path, std::size_t source, bool from_base) {
    ParsedInput parsed = read_journal(path);
    ++report.inputs;
    if (parsed.torn) ++report.torn_tails;
    if (ref_path.empty()) {
      ref_path = path;
      ref_header = parsed.header;
    } else {
      require_same_header(ref_header, parsed.header, ref_path, path);
    }
    for (auto& [key, record] : parsed.records) {
      record.source = source;
      record.from_base = from_base;

      // One point id must map to one params hash fleet-wide: two hashes
      // mean two workers simulated different configs under the same name.
      const auto hash_it = point_hash.find(key.point);
      if (hash_it == point_hash.end()) {
        point_hash.emplace(key.point, key.hash);
      } else if (hash_it->second != key.hash) {
        char want[24];
        char got[24];
        std::snprintf(want, sizeof(want), "%016" PRIx64, hash_it->second);
        std::snprintf(got, sizeof(got), "%016" PRIx64, key.hash);
        throw JournalMergeError("params-hash conflict for point '" + key.point + "': " +
                                want + " vs " + got + " (in " + path +
                                ") — the fleet did not run one configuration");
      }

      const auto [it, inserted] = merged.emplace(key, record);
      if (inserted) continue;
      if (it->second.body != record.body) {
        throw JournalMergeError(
            "conflicting records for point '" + key.point + "' shard " +
            std::to_string(key.shard) + " (" + path +
            " disagrees with an earlier input) — shards must replay to identical bytes");
      }
      // Identical bytes. Within one journal (or against the base
      // journal) that is a benign deterministic replay; across two
      // *worker* journals it means two workers claimed the same shard —
      // the partition was violated even though the results agree.
      const bool same_worker_file = !it->second.from_base && !record.from_base &&
                                    it->second.source == record.source;
      const bool involves_base = it->second.from_base || record.from_base;
      if (same_worker_file || involves_base) {
        ++report.duplicates_folded;
        it->second.from_base = it->second.from_base && record.from_base;
        continue;
      }
      throw JournalMergeError("overlapping shard ownership: point '" + key.point +
                              "' shard " + std::to_string(key.shard) +
                              " appears in two worker journals (" + path +
                              " and an earlier input) — the shard partition must be "
                              "disjoint");
    }
  };

  if (!base.empty()) fold_one(base, static_cast<std::size_t>(-1), true);
  for (std::size_t i = 0; i < inputs.size(); ++i) fold_one(inputs[i], i, false);

  // Stage + atomic publish, mirroring CheckpointJournal::open's fresh-file
  // path: a crash mid-merge never leaves a half-merged journal visible.
  const std::string tmp = out_path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) throw JournalMergeError("cannot create " + tmp);
  const std::string header = journal::seal_line(journal::format_header(
      ref_header.schema_version, ref_header.figure_id, ref_header.build_sha));
  bool ok = std::fprintf(out, "%s\n", header.c_str()) > 0;
  for (const auto& [key, record] : merged) {
    ok = ok && std::fprintf(out, "%s\n", journal::seal_line(record.body).c_str()) > 0;
    switch (key.rank) {
      case kStats: ++report.shard_records; break;
      case kObs: ++report.obs_records; break;
      case kQuarantine: ++report.quarantine_records; break;
      default: break;
    }
  }
  ok = ok && std::fflush(out) == 0 && ::fsync(::fileno(out)) == 0;
  std::fclose(out);
  if (!ok) {
    std::remove(tmp.c_str());
    throw JournalMergeError("write failed on " + tmp);
  }
  if (std::rename(tmp.c_str(), out_path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw JournalMergeError("cannot publish " + tmp + " to " + out_path);
  }
  return report;
}

}  // namespace bhss::runtime::distributed
