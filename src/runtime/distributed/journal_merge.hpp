#pragma once

/// @file journal_merge.hpp
/// Fold N worker checkpoint journals into one canonical journal.
///
/// A campaign split across worker processes (`--worker-id=I
/// --n-workers=N`, launched by hand on one or many hosts) leaves one
/// journal per worker, each holding the S/O records of the shards that
/// worker owns under the mod partition (shard_partition.hpp). The merge
/// folds them back into a single journal that an ordinary `--resume`
/// publish pass replays, under the same contract `merge_point_results`
/// enforces for in-process shard merging:
///
///  - Canonical record order: ascending (point id, params hash, shard),
///    with a shard's `O` line immediately before its `S` line — the byte
///    layout is a pure function of the record *set*, independent of
///    worker completion order or input file order.
///  - Disjointness: worker journals own disjoint shard slices by
///    construction, so the same (point, hash, shard) key appearing in two
///    different worker inputs is a partition violation and rejects the
///    merge — even when the payloads agree. Within one input (a worker
///    that crashed between its O and S lines and replayed), an exact
///    duplicate is benign and deduplicated; a duplicate with a differing
///    payload means non-deterministic recomputation and rejects.
///  - Config coherence: all inputs must carry identical headers (schema,
///    figure, build sha), and one point id must map to one params hash
///    across all inputs — workers that ran different configs cannot be
///    silently folded.
///  - One reader: every input is read through `journal::scan`, the scan
///    a resume uses, so merge and resume agree on which lines are valid.
///    Each input's valid CRC prefix is used and a torn remainder counted;
///    a journal of another line-format version, or a sealed line this
///    build cannot read (such as the `Q` line of older builds), is
///    refused by name.
///
/// `base` (optional) is an earlier journal of the same campaign (a
/// previous merge, or a single-process run): its records are folded in
/// too, but a worker record that *equals* a base record is fine (workers
/// deterministically recompute shards they cannot see in the base
/// journal) — only a payload conflict rejects.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace bhss::runtime::distributed {

/// A merge input violated the fold contract (overlap, conflict, header
/// mismatch, unreadable journal). The merged output is not written.
class JournalMergeError : public std::runtime_error {
 public:
  explicit JournalMergeError(const std::string& what)
      : std::runtime_error("journal-merge: " + what) {}
};

/// What one merge did — the tools binary's report.
struct MergeReport {
  std::size_t inputs = 0;             ///< journals read (including `base`)
  std::size_t shard_records = 0;      ///< S records in the output
  std::size_t obs_records = 0;        ///< O records in the output
  std::size_t duplicates_folded = 0;  ///< benign exact duplicates removed
  std::size_t torn_tails = 0;         ///< inputs whose tail was torn
};

/// Merge `inputs` (worker journals, any order) plus optional `base` (an
/// earlier journal of the campaign, "" = none) into a fresh journal at
/// `out_path`. The output is written to `<out_path>.tmp` and atomically
/// renamed, so a crash mid-merge never leaves a half-merged journal at
/// the published path. An empty `out_path` validates the merge and
/// writes nothing. Throws JournalMergeError on any contract violation;
/// the output path is untouched in that case.
MergeReport merge_journals(const std::vector<std::string>& inputs,
                           const std::string& out_path, const std::string& base = "");

}  // namespace bhss::runtime::distributed
