#pragma once

/// @file journal_format.hpp
/// The checkpoint journal's line format, factored out of CheckpointJournal
/// so every consumer of journal bytes — the journal itself, the
/// `journal-merge` fold (src/runtime/distributed) and the tools/ binary —
/// reads and writes exactly the same sealed lines. One line is
///
///   <body> crc=XXXX
///
/// with the CRC-16/CCITT over the body bytes. The header body is
///
///   bhss-journal v<fmt> schema=<n> figure=<id> git=<sha>
///
/// and record bodies start with a one-letter kind (S/O/Q/P/H — see
/// checkpoint_journal.hpp). LinkStats travel as space-separated tokens
/// with doubles as IEEE-754 bit patterns, so replaying a journal merges
/// to the same bits as the uninterrupted run.

#include <cstdint>
#include <string>

#include "core/link_simulator.hpp"

namespace bhss::runtime::journal {

/// Journal line-format version. Bump when the sealed-line layout changes;
/// a resumed or merged journal with a different version is rejected.
inline constexpr int kFormatVersion = 1;

/// CRC-16/CCITT over the body bytes (what the " crc=XXXX" tail seals).
[[nodiscard]] std::uint16_t line_crc(const std::string& body);

/// "<body> crc=XXXX" with the CRC over the body bytes.
[[nodiscard]] std::string seal_line(const std::string& body);

/// Strip and verify the trailing " crc=XXXX"; returns false on any
/// mismatch (torn write, bit rot, manual edit).
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
