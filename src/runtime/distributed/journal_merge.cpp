#include "runtime/distributed/journal_merge.hpp"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <tuple>

#include "runtime/journal_format.hpp"

namespace bhss::runtime::distributed {
namespace {

// Canonical sort key. Kind ranks put a shard's telemetry blob (O)
// immediately before its stats (S) — the order record_shard writes them.
enum KindRank : int { kObs = 0, kStats = 1 };

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

// Read one journal through the scan resume uses, never mutating it. A
// refusal (a foreign format, no header, a sealed line this build cannot
// read) becomes a merge error, so the tool exits 1 instead of aborting.
journal::Scan read_journal(const std::string& path) {
  try {
    return journal::scan(path);
  } catch (const std::runtime_error& e) {
    throw JournalMergeError(e.what());
  }
}

void require_same_header(const journal::Header& ref, const journal::Header& got,
                         const std::string& ref_path, const std::string& path) {
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
    journal::Scan scanned = read_journal(path);
    ++report.inputs;
    if (scanned.torn) ++report.torn_tails;
    if (ref_path.empty()) {
      ref_path = path;
      ref_header = scanned.header;
    } else {
      require_same_header(ref_header, scanned.header, ref_path, path);
    }
    for (journal::Record& line : scanned.records) {
      const journal::RecordHead& head = line.head;
      const RecordKey key{head.point, head.params_hash, head.shard,
                          head.kind == 'O' ? kObs : kStats};
      const Record record{std::move(line.body), source, from_base};

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

  for (const auto& entry : merged) {
    if (entry.first.rank == kObs) {
      ++report.obs_records;
    } else {
      ++report.shard_records;
    }
  }
  if (out_path.empty()) return report;  // validate only

  // Stage + atomic publish, mirroring CheckpointJournal::open's fresh-file
  // path: a crash mid-merge never leaves a half-merged journal visible.
  const std::string tmp = out_path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) throw JournalMergeError("cannot create " + tmp);
  const std::string header = journal::seal_line(journal::format_header(
      ref_header.schema_version, ref_header.figure_id, ref_header.build_sha));
  bool ok = std::fprintf(out, "%s\n", header.c_str()) > 0;
  for (const auto& entry : merged) {
    ok = ok && std::fprintf(out, "%s\n", journal::seal_line(entry.second.body).c_str()) > 0;
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
