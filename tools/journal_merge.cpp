// journal-merge: fold N worker checkpoint journals into one canonical
// journal (src/runtime/distributed/journal_merge.hpp).
//
//   journal_merge --out=PATH [--base=PATH] worker.w0 worker.w1 ...
//
// The distributed path of every bench: run `--worker-id=I --n-workers=N
// --checkpoint=wI.ckpt` slices on one or many hosts, merge their journals
// here, then publish with `--resume=merged.ckpt`. Also for re-merging
// after replacing a corrupt input, or inspecting what a merge WOULD do
// (--dry-run parses and validates everything but writes nothing).
//
// Exit status: 0 on success, 1 on a contract violation (overlapping
// shard ownership, conflicting records, mismatched headers, unreadable
// input), 2 on usage errors.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "runtime/distributed/journal_merge.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --out=PATH [--base=PATH] [--dry-run] JOURNAL...\n"
               "  --out=PATH   merged journal destination (atomic publish)\n"
               "  --base=PATH  an earlier journal of the campaign to fold in;\n"
               "               its records may coincide with worker records\n"
               "  --dry-run    validate the merge, write nothing\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out;
  std::string base;
  bool dry_run = false;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--base=", 7) == 0) {
      base = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--dry-run") == 0) {
      dry_run = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage(argv[0]);
      return 0;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "journal-merge: unknown flag %s\n", argv[i]);
      return usage(argv[0]);
    } else {
      inputs.emplace_back(argv[i]);
    }
  }
  if (inputs.empty() || (out.empty() && !dry_run)) return usage(argv[0]);

  // A dry run still exercises the full fold (headers, overlap, conflict
  // and torn-tail handling) — it just stages the output under /dev/null's
  // directory-free sibling: we merge to a throwaway path and delete it.
  const std::string target = dry_run ? (out.empty() ? inputs.front() + ".dryrun" : out + ".dryrun")
                                     : out;
  try {
    const bhss::runtime::distributed::MergeReport report =
        bhss::runtime::distributed::merge_journals(inputs, target, base);
    if (dry_run) std::remove(target.c_str());
    std::printf(
        "journal-merge: %zu inputs -> %s\n"
        "  shard records      %zu\n"
        "  telemetry records  %zu\n"
        "  quarantine records %zu\n"
        "  duplicates folded  %zu\n"
        "  torn tails         %zu\n",
        report.inputs, dry_run ? "(dry run)" : target.c_str(), report.shard_records,
        report.obs_records, report.quarantine_records, report.duplicates_folded,
        report.torn_tails);
    return 0;
  } catch (const bhss::runtime::distributed::JournalMergeError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
