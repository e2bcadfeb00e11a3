#include "obs/link_obs.hpp"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <system_error>

#include "core/contracts.hpp"

namespace bhss::obs {

namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void append_key(std::string& out, const char* key) {
  out += '"';
  out += key;
  out += "\":";
}

void append_u64(std::string& out, const char* key, std::uint64_t v) {
  append_key(out, key);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_double(std::string& out, const char* key, double v) {
  append_key(out, key);
  if (std::isfinite(v)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
  } else {
    // NaN/Inf are not JSON numbers; quote them so the line stays parseable.
    out += std::isnan(v) ? "\"nan\"" : (v > 0 ? "\"inf\"" : "\"-inf\"");
  }
}

void append_name(std::string& out, const char* key, const char* name) {
  append_key(out, key);
  out += '"';
  out += name;
  out += '"';
}

}  // namespace

void add_link_stats(MetricsShard& m, const core::LinkStats& s) {
  std::size_t id = 0;  // the projected rows open kLinkInstruments, in field order
  for (const core::LinkStatsField& f : core::kLinkStatsFields) {
    if (f.projected) m.add(id++, f.bits(s));
  }
}

ShardTelemetry merge_telemetry(const std::vector<ShardTelemetry>& shards,
                               std::size_t expected_shards) {
  BHSS_REQUIRE(shards.size() == expected_shards,
               "merge_telemetry: telemetry vector length must equal the shard count "
               "(shared merge-order contract, see link_obs.hpp)");
  ShardTelemetry merged;
  for (const ShardTelemetry& shard : shards) {  // left fold, ascending shard order
    merged.metrics.merge_from(shard.metrics);
    merged.trace.merge_scopes_from(shard.trace);
  }
  return merged;
}

std::string serialize_telemetry(const ShardTelemetry& t) {
  std::string out = "obs1";
  char buf[64];
  const auto put_u64 = [&](std::uint64_t v) {
    std::snprintf(buf, sizeof(buf), " %" PRIu64, v);
    out += buf;
  };
  const auto put_bits = [&](double v) {
    std::snprintf(buf, sizeof(buf), " %016" PRIx64, double_bits(v));
    out += buf;
  };

  out += " c";
  put_u64(kNumCounters);
  out += " g";
  put_u64(kNumGauges);
  out += " h";
  put_u64(kNumHistograms);
  const MetricsShard& m = t.metrics;
  for (std::size_t id = 0; id < kFirstGauge; ++id) put_u64(m.counter(id));
  for (std::size_t id = kFirstGauge; id < kFirstHistogram; ++id) {
    const std::optional<double> v = m.gauge(id);
    if (v.has_value()) {
      put_bits(*v);
    } else {
      out += " u";
    }
  }
  for (std::size_t id = kFirstHistogram; id < kNumInstruments; ++id) {
    const std::vector<std::uint64_t>& bins = m.histogram(id);
    put_u64(bins.size());
    for (std::uint64_t b : bins) put_u64(b);
  }
  out += " t";
  put_u64(t.trace.capacity());
  put_u64(t.trace.total_recorded());
  const std::vector<TraceEvent> events = t.trace.events();
  put_u64(events.size());
  for (const TraceEvent& ev : events) {
    put_u64(static_cast<std::uint64_t>(ev.type));
    put_u64(ev.flag);
    put_u64(ev.bw_index);
    put_u64(ev.hop);
    put_u64(ev.packet);
    put_bits(ev.v0);
    put_bits(ev.v1);
    put_bits(ev.v2);
    put_bits(ev.v3);
    put_bits(ev.v4);
    put_bits(ev.v5);
  }
  return out;
}

bool parse_token(std::string_view tok, bool hex_bits, std::uint64_t& v) {
  if (hex_bits && tok.size() != 16) return false;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v, hex_bits ? 16 : 10);
  return ec == std::errc{} && ptr == end;
}

bool deserialize_telemetry(std::string_view text, ShardTelemetry& out) {
  std::istringstream in{std::string(text)};
  std::string tok;
  const auto next = [&](std::string& t) -> bool { return static_cast<bool>(in >> t); };
  const auto next_u64 = [&](std::uint64_t& v) -> bool {
    std::string t;
    return next(t) && parse_token(t, false, v);
  };
  const auto next_hex_bits = [&](double& v) -> bool {
    std::string t;
    std::uint64_t bits = 0;
    if (!next(t) || !parse_token(t, true, bits)) return false;
    v = bits_double(bits);
    return true;
  };

  if (!next(tok) || tok != "obs1") return false;
  std::uint64_t n_counters = 0;
  std::uint64_t n_gauges = 0;
  std::uint64_t n_hists = 0;
  if (!next(tok) || tok != "c" || !next_u64(n_counters)) return false;
  if (!next(tok) || tok != "g" || !next_u64(n_gauges)) return false;
  if (!next(tok) || tok != "h" || !next_u64(n_hists)) return false;
  if (n_counters != kNumCounters || n_gauges != kNumGauges || n_hists != kNumHistograms) {
    return false;  // schema drift: refuse rather than misattribute slots
  }

  // Parse into a fresh bundle; `out` changes only on full success.
  ShardTelemetry parsed;
  MetricsShard& m = parsed.metrics;
  for (std::size_t id = 0; id < kFirstGauge; ++id) {
    std::uint64_t v = 0;
    if (!next_u64(v)) return false;
    m.add(id, v);
  }
  for (std::size_t id = kFirstGauge; id < kFirstHistogram; ++id) {
    std::uint64_t bits = 0;
    if (!next(tok)) return false;
    if (tok == "u") continue;  // unset
    if (!parse_token(tok, true, bits)) return false;
    m.set(id, bits_double(bits));
  }
  std::vector<std::uint64_t> bins;
  for (std::size_t id = kFirstHistogram; id < kNumInstruments; ++id) {
    std::uint64_t n_bins = 0;
    if (!next_u64(n_bins) || n_bins != m.histogram(id).size()) return false;
    bins.assign(n_bins, 0);
    for (std::uint64_t& b : bins) {
      if (!next_u64(b)) return false;
    }
    m.add_bins(id, bins);
  }

  std::uint64_t capacity = 0;
  std::uint64_t total = 0;
  std::uint64_t retained = 0;
  if (!next(tok) || tok != "t") return false;
  if (!next_u64(capacity) || !next_u64(total) || !next_u64(retained)) return false;
  if (capacity != kDefaultTraceCapacity || retained > capacity || retained > total) return false;
  for (std::uint64_t i = 0; i < retained; ++i) {
    TraceEvent ev;
    std::uint64_t type = 0;
    std::uint64_t flag = 0;
    std::uint64_t bw = 0;
    std::uint64_t hop = 0;
    if (!next_u64(type) || !next_u64(flag) || !next_u64(bw) || !next_u64(hop) ||
        !next_u64(ev.packet)) {
      return false;
    }
    if (type >= kNumTraceEventTypes || flag > 0xFF || bw > 0xFFFF || hop > 0xFFFFFFFFull) {
      return false;
    }
    ev.type = static_cast<TraceEventType>(type);
    ev.flag = static_cast<std::uint8_t>(flag);
    ev.bw_index = static_cast<std::uint16_t>(bw);
    ev.hop = static_cast<std::uint32_t>(hop);
    if (!next_hex_bits(ev.v0) || !next_hex_bits(ev.v1) || !next_hex_bits(ev.v2) ||
        !next_hex_bits(ev.v3) || !next_hex_bits(ev.v4) || !next_hex_bits(ev.v5)) {
      return false;
    }
    parsed.trace.push(ev);
  }
  if (next(tok)) return false;  // trailing garbage

  // Dropped events are gone but their count must survive the round trip
  // (the emitters' drop accounting depends on it).
  if (total > retained) parsed.trace.restore_total(total);
  out = std::move(parsed);
  return true;
}

std::string metrics_json_body(const MetricsShard& m) {
  std::string out;
  for (std::size_t id = 0; id < kFirstGauge; ++id) {
    if (id > 0) out += ',';
    append_u64(out, kLinkInstruments[id].name, m.counter(id));
  }
  for (std::size_t id = kFirstGauge; id < kFirstHistogram; ++id) {
    out += ',';
    const std::optional<double> v = m.gauge(id);
    if (v.has_value()) {
      append_double(out, kLinkInstruments[id].name, *v);
    } else {
      append_key(out, kLinkInstruments[id].name);
      out += "null";
    }
  }
  for (std::size_t id = kFirstHistogram; id < kNumInstruments; ++id) {
    out += ',';
    append_key(out, kLinkInstruments[id].name);
    out += '[';
    const std::vector<std::uint64_t>& bins = m.histogram(id);
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (b > 0) out += ',';
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%" PRIu64, bins[b]);
      out += buf;
    }
    out += ']';
  }
  return out;
}

std::string trace_event_json_body(const TraceEvent& ev) {
  const TraceEventFormat& f = kTraceEventFormats[static_cast<std::size_t>(ev.type)];
  std::string out;
  append_name(out, "event", f.name);
  out += ',';
  append_u64(out, "pkt", ev.packet);
  out += ',';
  append_u64(out, f.hop, ev.hop);
  if (f.bw) {
    out += ',';
    append_u64(out, "bw", ev.bw_index);
  }
  if (f.flag != nullptr) {
    out += ',';
    if (f.flag_names.empty()) {
      append_u64(out, f.flag, ev.flag);
    } else {
      append_name(out, f.flag, ev.flag < f.flag_names.size() ? f.flag_names[ev.flag] : "unknown");
    }
  }
  const std::array<double, 6> v = {ev.v0, ev.v1, ev.v2, ev.v3, ev.v4, ev.v5};
  for (std::size_t i = 0; i < v.size() && f.v[i] != nullptr; ++i) {
    out += ',';
    append_double(out, f.v[i], v[i]);
  }
  return out;
}

// The derivation table: every obs-only metric is a function of the one
// event that records it. sync_loss, fault_applied and packet_done derive
// none; the two cache counters have no event and go through add().
void LinkObs::record(const TraceEvent& ev) const noexcept {
  BHSS_DEBUG_ASSERT(telemetry != nullptr, "LinkObs::record: the handle is off");
  telemetry->trace.push(ev);
  MetricsShard& m = telemetry->metrics;
  const LinkIds& ids = kLinkIds;
  switch (ev.type) {
    case TraceEventType::hop_decision:
      m.add(ids.hops);
      // flag 3 is the degenerate-PSD fallback, which filters nothing.
      m.add(ev.flag == 1   ? ids.filter_lowpass
            : ev.flag == 2 ? ids.filter_excision
                           : ids.filter_none);
      if (ev.flag == 3) m.add(ids.degenerate_psd);
      m.observe(ids.est_jammer_bw, ev.v0);
      m.observe(ids.inband_peak_db, ev.v2);
      break;
    case TraceEventType::sync_attempt:
      m.add(ids.sync_attempts);
      break;
    case TraceEventType::sync_lock:
      m.add(ids.sync_locks);
      m.set(ids.last_sync_quality, ev.v3);
      m.set(ids.last_sync_margin, ev.v4);
      m.observe(ids.sync_margin, ev.v4);
      break;
    case TraceEventType::adapt_window:
      m.add(ids.adapt_windows);
      break;
    case TraceEventType::adapt_transition:
      m.set(ids.adapt_state, static_cast<double>(ev.flag));
      break;
    case TraceEventType::sync_loss:
    case TraceEventType::fault_applied:
    case TraceEventType::packet_done:
      break;
  }
}

void LinkObs::add(std::size_t counter_id) const noexcept {
  BHSS_DEBUG_ASSERT(telemetry != nullptr, "LinkObs::add: the handle is off");
  telemetry->metrics.add(counter_id);
}

std::string scope_stats_json_body(const TraceSink& t) {
  std::string out;
  bool first = true;
  for (std::size_t i = 0; i < kNumTraceScopes; ++i) {
    const TraceScopeId id = static_cast<TraceScopeId>(i);
    const TraceScopeStats& s = t.scope(id);
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s_calls\":%" PRIu64 ",\"%s_total_ns\":%" PRIu64 ",\"%s_max_ns\":%" PRIu64,
                  first ? "" : ",", trace_scope_name(id), s.calls, trace_scope_name(id), s.total_ns,
                  trace_scope_name(id), s.max_ns);
    out += buf;
    first = false;
  }
  return out;
}

}  // namespace bhss::obs
