#include "runtime/journal_format.hpp"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <string_view>
#include <system_error>

#include "core/contracts.hpp"

namespace bhss::runtime::journal {

bool valid_point_id(const std::string& id) noexcept {
  return !id.empty() && id.size() <= kMaxPointIdLength &&
         id.find_first_of(" \t\n\r\v\f") == std::string::npos;
}

std::uint32_t line_crc(const std::string& body) {
  // Bitwise, like phy::crc16_ccitt: eight shift/xor steps per byte.
  std::uint32_t crc = 0xFFFFFFFFU;
  for (const char ch : body) {
    crc ^= static_cast<std::uint8_t>(ch);
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ (0xEDB88320U & (0U - (crc & 1U)));
  }
  return ~crc;
}

std::string seal_line(const std::string& body) {
  char tail[16];
  std::snprintf(tail, sizeof(tail), " crc=%08" PRIX32, line_crc(body));
  return body + tail;
}

bool unseal_line(const std::string& line, std::string& body) {
  static constexpr std::size_t kDigits = 8;
  static constexpr std::size_t kTail = 5 + kDigits;  // " crc=XXXXXXXX"
  if (line.size() < kTail) return false;
  const std::size_t split = line.size() - kTail;
  if (line.compare(split, 5, " crc=") != 0) return false;
  const char* digits = line.data() + split + 5;
  std::uint32_t crc = 0;
  const auto [end, ec] = std::from_chars(digits, digits + kDigits, crc, 16);
  if (ec != std::errc{} || end != digits + kDigits) return false;
  body = line.substr(0, split);
  return line_crc(body) == crc;
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

int foreign_format_version(const std::string& line) {
  // A header's fields come before its CRC tail, so an older format's
  // header line parses without being unsealed.
  Header header;
  if (!parse_header(line, header) || header.format_version == kFormatVersion) return 0;
  return header.format_version;
}

bool parse_record_head(const std::string& body, RecordHead& out) {
  // " %191s%n": the point-id conversion, its width tied to
  // kMaxPointIdLength so the reader accepts every id a writer accepts.
  static const std::string kPointConversion =
      " %" + std::to_string(kMaxPointIdLength) + "s%n";
  if (body.size() < 2 || body[1] != ' ') return false;
  const char kind = body[0];
  if (kind != 'S' && kind != 'O' && kind != 'Q') return false;

  char point[kMaxPointIdLength + 1] = {0};
  int consumed = 0;
  if (std::sscanf(body.c_str() + 1, kPointConversion.c_str(), point, &consumed) != 1) {
    return false;
  }
  // A longer id stops the conversion mid-token: the id must end at a
  // separator, or the rest of it would be read as the hash.
  const std::size_t at = 1 + static_cast<std::size_t>(consumed);
  if (at >= body.size() || body[at] != ' ') return false;

  std::uint64_t hash = 0;
  std::size_t shard = 0;
  int rest = 0;
  if (std::sscanf(body.c_str() + at, " %" SCNx64 " %zu %n", &hash, &shard, &rest) != 2) {
    return false;
  }
  out = {kind, point, hash, shard, at + static_cast<std::size_t>(rest)};
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
