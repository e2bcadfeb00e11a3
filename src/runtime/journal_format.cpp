#include "runtime/journal_format.hpp"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>
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

namespace {

/// Parse an unsealed header body; returns false when it is not a journal
/// header at all (wrong magic / missing fields).
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

/// The first line of a journal that failed to unseal, read as a header of
/// another format version: returns that version when the line parses as
/// a header whose version differs from kFormatVersion, and 0 otherwise.
/// Lets `scan` refuse an older journal by name instead of calling it
/// headerless.
int foreign_format_version(const std::string& line) {
  // A header's fields come before its CRC tail, so an older format's
  // header line parses without being unsealed.
  Header header;
  if (!parse_header(line, header) || header.format_version == kFormatVersion) return 0;
  return header.format_version;
}

/// Split a record body into its head. Returns false for an unknown kind
/// or a malformed head, including a point id longer than
/// kMaxPointIdLength.
bool parse_record_head(const std::string& body, RecordHead& out) {
  // " %191s%n": the point-id conversion, its width tied to
  // kMaxPointIdLength so the reader accepts every id a writer accepts.
  static const std::string kPointConversion =
      " %" + std::to_string(kMaxPointIdLength) + "s%n";
  if (body.size() < 2 || body[1] != ' ') return false;
  const char kind = body[0];
  if (kind != 'S' && kind != 'O') return false;

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

}  // namespace

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

Scan scan(const std::string& path, const std::function<void(const Header&)>& check_header) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);

  const auto refuse_format = [&path](int version) {
    throw std::runtime_error(path + " uses journal format v" + std::to_string(version) +
                             ", this build reads v" + std::to_string(kFormatVersion) +
                             " — start a fresh checkpoint");
  };

  Scan out;
  std::string line;
  bool saw_header = false;
  for (std::size_t number = 1; std::getline(in, line); ++number) {
    // getline strips the '\n'. A final line without one is a torn append
    // even when its CRC checks out (the cut fell just before the newline):
    // keeping it would glue the next append onto the same line.
    std::string body;
    if (in.eof() || !unseal_line(line, body)) {
      if (const int version = saw_header ? 0 : foreign_format_version(line)) {
        refuse_format(version);
      }
      out.torn = true;
      break;
    }
    if (!saw_header) {
      if (!parse_header(body, out.header)) break;
      if (out.header.format_version != kFormatVersion) refuse_format(out.header.format_version);
      if (check_header) check_header(out.header);
      saw_header = true;
    } else {
      Record record;
      const bool known = parse_record_head(body, record.head);
      if (!known || (record.head.kind == 'S' &&
                     !parse_stats(body.c_str() + record.head.payload, record.stats))) {
        const std::string shown = body.size() > 64 ? body.substr(0, 64) + "..." : body;
        throw std::runtime_error((known ? "unreadable stats in " : "unknown record kind in ") +
                                 path + " line " + std::to_string(number) + ": '" + shown +
                                 "'");
      }
      record.body = std::move(body);
      out.records.push_back(std::move(record));
    }
    out.valid_end += line.size() + 1;
  }
  if (!saw_header) throw std::runtime_error(path + " has no valid header");
  return out;
}

}  // namespace bhss::runtime::journal
