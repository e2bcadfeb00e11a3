#pragma once

/// @file journal_format.hpp
/// The checkpoint journal's line format, factored out of CheckpointJournal
/// so every consumer of journal bytes — the journal itself, the
/// `journal-merge` fold (src/runtime/distributed) and the tools/ binary —
/// reads and writes exactly the same sealed lines. One line is
///
///   <body> crc=XXXXXXXX
///
/// with the CRC-32 (IEEE) over the body bytes. The header body is
///
///   bhss-journal v<fmt> schema=<n> figure=<id> git=<sha>
///
/// and record bodies start with a one-letter kind (S/O/Q — see
/// checkpoint_journal.hpp). LinkStats travel as space-separated tokens
/// with doubles as IEEE-754 bit patterns, so replaying a journal merges
/// to the same bits as the uninterrupted run.
///
/// Format v1 sealed lines with a CRC-16 (" crc=XXXX"), which lets about
/// one random corruption in 65 536 through; v2 moved to CRC-32. A v1
/// journal is refused, not converted.

#include <cstdint>
#include <string>

#include "core/link_simulator.hpp"

namespace bhss::runtime::journal {

/// Journal line-format version. Bump when the sealed-line layout changes;
/// a resumed or merged journal with a different version is rejected.
inline constexpr int kFormatVersion = 2;

/// Longest point id a record may carry. The writers reject longer ids and
/// the record reader's sscanf width is derived from it, so whatever is
/// written reads back whole.
inline constexpr std::size_t kMaxPointIdLength = 191;

/// True when `id` can be a record's point-id token: non-empty, at most
/// kMaxPointIdLength bytes, no whitespace.
[[nodiscard]] bool valid_point_id(const std::string& id) noexcept;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320, init and final
/// xor 0xFFFFFFFF) over the body bytes — what the " crc=XXXXXXXX" tail
/// seals. Check value: "123456789" -> 0xCBF43926.
[[nodiscard]] std::uint32_t line_crc(const std::string& body);

/// "<body> crc=XXXXXXXX" with the CRC over the body bytes.
[[nodiscard]] std::string seal_line(const std::string& body);

/// Strip and verify the trailing " crc=XXXXXXXX"; returns false on any
/// mismatch (torn write, bit rot, manual edit, older format).
[[nodiscard]] bool unseal_line(const std::string& line, std::string& body);

/// Parsed journal header line.
struct Header {
  int format_version = 0;
  int schema_version = 0;
  std::string figure_id;
  std::string build_sha;
};

/// Render the header body (unsealed) for a fresh journal.
[[nodiscard]] std::string format_header(int schema_version, const std::string& figure_id,
                                        const std::string& build_sha);

/// Parse an unsealed header body; returns false when it is not a journal
/// header at all (wrong magic / missing fields).
[[nodiscard]] bool parse_header(const std::string& body, Header& out);

/// The first line of a journal that failed to unseal, read as a header of
/// another format version: returns that version when the line parses as
/// a header whose version differs from kFormatVersion, and 0 otherwise.
/// Lets both readers refuse an older journal by name instead of calling
/// it headerless.
[[nodiscard]] int foreign_format_version(const std::string& line);

/// The fixed head of a record body: `<kind> <point> <hash> <shard>`.
/// Every record kind (`S`, `O`, `Q`) belongs to one shard, so every head
/// carries one. `payload` is the offset of what follows the head (stats
/// tokens, telemetry blob or attempt count).
struct RecordHead {
  char kind = 0;
  std::string point;
  std::uint64_t params_hash = 0;
  std::size_t shard = 0;
  std::size_t payload = 0;
};

/// Split a record body into its head. Returns false for an unknown kind
/// or a malformed head, including a point id longer than
/// kMaxPointIdLength.
[[nodiscard]] bool parse_record_head(const std::string& body, RecordHead& out);

/// One space-separated token per `core::kLinkStatsFields` row, in table
/// order: counters in decimal, doubles as their IEEE-754 bit patterns in
/// 16 hex digits. The replayed merge must reproduce the uninterrupted
/// run's statistics bit for bit, and "%.17g" round-trips are one parser
/// bug away from silently breaking that.
[[nodiscard]] std::string format_stats(const core::LinkStats& s);

/// Inverse of format_stats. Strict: exactly one token per field, single
/// spaces, each token parsed whole (no sign, no overflow, hex tokens
/// exactly 16 digits). Returns false and leaves `s` untouched otherwise.
[[nodiscard]] bool parse_stats(const char* text, core::LinkStats& s);

}  // namespace bhss::runtime::journal
