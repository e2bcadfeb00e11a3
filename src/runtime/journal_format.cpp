#include "runtime/journal_format.hpp"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <span>
#include <string_view>
#include <system_error>

#include "core/contracts.hpp"
#include "phy/crc16.hpp"

namespace bhss::runtime::journal {

std::uint16_t line_crc(const std::string& body) {
  return phy::crc16_ccitt(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(body.data()), body.size()));
}

std::string seal_line(const std::string& body) {
  char tail[16];
  std::snprintf(tail, sizeof(tail), " crc=%04X", line_crc(body));
  return body + tail;
}

bool unseal_line(const std::string& line, std::string& body) {
  static constexpr std::size_t kTail = 9;  // " crc=XXXX"
  if (line.size() < kTail) return false;
  const std::size_t split = line.size() - kTail;
  if (line.compare(split, 5, " crc=") != 0) return false;
  unsigned crc = 0;
  if (std::sscanf(line.c_str() + split + 5, "%4x", &crc) != 1) return false;
  body = line.substr(0, split);
  return line_crc(body) == static_cast<std::uint16_t>(crc);
}

std::string format_header(int schema_version, const std::string& figure_id,
                          const std::string& build_sha) {
  char header[256];
  std::snprintf(header, sizeof(header), "bhss-journal v%d schema=%d figure=%s git=%s",
                kFormatVersion, schema_version, figure_id.c_str(),
                build_sha.empty() ? "unknown" : build_sha.c_str());
  return header;
}

bool parse_header(const std::string& body, Header& out) {
  char figure[128] = {0};
  char git[128] = {0};
  int version = 0;
  int schema = 0;
  if (std::sscanf(body.c_str(), "bhss-journal v%d schema=%d figure=%127s git=%127s",
                  &version, &schema, figure, git) != 4) {
    return false;
  }
  out.format_version = version;
  out.schema_version = schema;
  out.figure_id = figure;
  out.build_sha = git;
  return true;
}

std::string format_stats(const core::LinkStats& s) {
  std::string out;
  char token[24];
  for (const core::LinkStatsField& f : core::kLinkStatsFields) {
    std::snprintf(token, sizeof(token), f.count != nullptr ? "%" PRIu64 : "%016" PRIx64,
                  f.bits(s));
    if (!out.empty()) out += ' ';
    out += token;
  }
  return out;
}

namespace {

/// One stats token: a decimal count, or a double's bit pattern as exactly
/// 16 hex digits. The whole token must parse; no sign, no overflow.
bool parse_token(std::string_view tok, bool hex_bits, std::uint64_t& v) {
  if (hex_bits && tok.size() != 16) return false;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v, hex_bits ? 16 : 10);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

bool parse_stats(const char* text, core::LinkStats& s) {
  BHSS_REQUIRE(text != nullptr, "journal::parse_stats: null text");
  core::LinkStats parsed;
  std::string_view rest{text};
  bool more = true;  // a separator followed the previous token
  for (const core::LinkStatsField& f : core::kLinkStatsFields) {
    if (!more) return false;  // too few tokens
    const std::size_t space = rest.find(' ');
    more = space != std::string_view::npos;
    std::uint64_t v = 0;
    if (!parse_token(rest.substr(0, space), f.count == nullptr, v)) return false;
    f.set_bits(parsed, v);
    rest.remove_prefix(more ? space + 1 : rest.size());
  }
  if (more) return false;  // trailing token
  s = parsed;
  return true;
}

}  // namespace bhss::runtime::journal
