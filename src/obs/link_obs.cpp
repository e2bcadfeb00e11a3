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

struct LinkSchema {
  MetricsRegistry registry;
  LinkIds ids;
};

LinkSchema build_link_schema() {
  LinkSchema s;
  MetricsRegistry& r = s.registry;
  LinkIds& id = s.ids;
  for (std::size_t row = 0; row < core::kLinkStatsFields.size(); ++row) {
    const core::LinkStatsField& f = core::kLinkStatsFields[row];
    if (f.projected) id.stats[row] = r.add_counter(f.name);
  }
  id.sync_attempts = r.add_counter("sync_attempts");
  id.sync_locks = r.add_counter("sync_locks");
  id.hops = r.add_counter("hops");
  id.filter_none = r.add_counter("filter_none");
  id.filter_lowpass = r.add_counter("filter_lowpass");
  id.filter_excision = r.add_counter("filter_excision");
  id.degenerate_psd = r.add_counter("degenerate_psd");
  id.filter_cache_hits = r.add_counter("filter_cache_hits");
  id.filter_cache_misses = r.add_counter("filter_cache_misses");
  id.adapt_windows = r.add_counter("adapt_windows");
  id.last_sync_quality = r.add_gauge("last_sync_quality");
  id.last_sync_margin = r.add_gauge("last_sync_margin");
  id.adapt_state = r.add_gauge("adapt_state");
  // Occupancy fraction of the slice bandwidth, eq. (10)'s left-hand side.
  id.est_jammer_bw = r.add_histogram(
      "est_jammer_bw", {0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0});
  id.inband_peak_db = r.add_histogram("inband_peak_db", {0.0, 2.0, 4.0, 5.5, 8.0, 12.0, 20.0, 40.0});
  id.sync_margin = r.add_histogram("sync_margin", {0.0, 2.0, 4.5, 7.0, 10.0, 15.0, 25.0, 50.0});
  return s;
}

const LinkSchema& link_schema() {
  // Immortal (never destroyed) so shards bound to it stay valid through
  // static teardown in any translation unit; the union suppresses the
  // destructor without a raw-new leak (no-destruct idiom).
  union Holder {
    LinkSchema schema;
    Holder() : schema(build_link_schema()) {}
    ~Holder() {}  // never destroy schema
  };
  static const Holder holder;
  return holder.schema;
}

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

void append_double(std::string& out, const char* key, double v) {
  char buf[64];
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "\"%s\":%.17g", key, v);
  } else {
    // NaN/Inf are not JSON numbers; quote them so the line stays parseable.
    std::snprintf(buf, sizeof(buf), "\"%s\":\"%s\"", key,
                  std::isnan(v) ? "nan" : (v > 0 ? "inf" : "-inf"));
  }
  out += buf;
}

void append_u64(std::string& out, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64, key, v);
  out += buf;
}

const char* filter_flag_name(std::uint8_t flag) noexcept {
  switch (flag) {
    case 0: return "none";
    case 1: return "lowpass";
    case 2: return "excision";
    case 3: return "degenerate";
    default: return "unknown";
  }
}

const char* sync_outcome_name(std::uint8_t flag) noexcept {
  switch (flag) {
    case 0: return "miss";
    case 1: return "lock";
    case 2: return "cfar_reject";
    default: return "unknown";
  }
}

const char* adapt_state_name(std::uint8_t flag) noexcept {
  switch (flag) {
    case 0: return "nominal";
    case 1: return "degraded";
    case 2: return "fallback";
    case 3: return "recovering";
    default: return "unknown";
  }
}

}  // namespace

const MetricsRegistry& link_registry() { return link_schema().registry; }
const LinkIds& link_ids() { return link_schema().ids; }

void add_link_stats(MetricsShard& m, const core::LinkStats& s) {
  BHSS_REQUIRE(m.registry() == &link_registry(),
               "add_link_stats: shard must use the canonical link registry");
  const LinkIds& ids = link_ids();
  for (std::size_t row = 0; row < core::kLinkStatsFields.size(); ++row) {
    const core::LinkStatsField& f = core::kLinkStatsFields[row];
    if (f.projected) m.add(ids.stats[row], f.bits(s));
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
  const MetricsRegistry& reg = link_registry();
  BHSS_REQUIRE(t.metrics.registry() == &reg,
               "serialize_telemetry: shard must use the canonical link registry");
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
  put_u64(reg.n_counters());
  out += " g";
  put_u64(reg.n_gauges());
  out += " h";
  put_u64(reg.n_histograms());
  for (std::size_t id = 0; id < reg.size(); ++id) {
    switch (reg.kind(id)) {
      case InstrumentKind::counter: put_u64(t.metrics.counter(id)); break;
      case InstrumentKind::gauge: {
        const std::optional<double> v = t.metrics.gauge(id);
        if (v.has_value()) {
          put_bits(*v);
        } else {
          out += " u";
        }
        break;
      }
      case InstrumentKind::histogram: {
        const std::vector<std::uint64_t>& bins = t.metrics.histogram(id);
        put_u64(bins.size());
        for (std::uint64_t b : bins) put_u64(b);
        break;
      }
    }
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
  const MetricsRegistry& reg = link_registry();
  std::uint64_t n_counters = 0;
  std::uint64_t n_gauges = 0;
  std::uint64_t n_hists = 0;
  if (!next(tok) || tok != "c" || !next_u64(n_counters)) return false;
  if (!next(tok) || tok != "g" || !next_u64(n_gauges)) return false;
  if (!next(tok) || tok != "h" || !next_u64(n_hists)) return false;
  if (n_counters != reg.n_counters() || n_gauges != reg.n_gauges() ||
      n_hists != reg.n_histograms()) {
    return false;  // schema drift: refuse rather than misattribute slots
  }

  // Parse metric values first, then rebuild `out` only on full success.
  std::vector<std::uint64_t> counters;
  std::vector<std::pair<bool, double>> gauges;
  std::vector<std::vector<std::uint64_t>> hists;
  for (std::size_t id = 0; id < reg.size(); ++id) {
    switch (reg.kind(id)) {
      case InstrumentKind::counter: {
        std::uint64_t v = 0;
        if (!next_u64(v)) return false;
        counters.push_back(v);
        break;
      }
      case InstrumentKind::gauge: {
        if (!next(tok)) return false;
        std::uint64_t bits = 0;
        if (tok == "u") {
          gauges.emplace_back(false, 0.0);
        } else if (parse_token(tok, true, bits)) {
          gauges.emplace_back(true, bits_double(bits));
        } else {
          return false;
        }
        break;
      }
      case InstrumentKind::histogram: {
        std::uint64_t n_bins = 0;
        if (!next_u64(n_bins)) return false;
        if (n_bins != reg.histogram_bins(id)) return false;
        std::vector<std::uint64_t> bins(n_bins, 0);
        for (std::uint64_t& b : bins) {
          if (!next_u64(b)) return false;
        }
        hists.push_back(std::move(bins));
        break;
      }
    }
  }

  std::uint64_t capacity = 0;
  std::uint64_t total = 0;
  std::uint64_t retained = 0;
  if (!next(tok) || tok != "t") return false;
  if (!next_u64(capacity) || !next_u64(total) || !next_u64(retained)) return false;
  if (capacity != kDefaultTraceCapacity || retained > capacity || retained > total) return false;
  std::vector<TraceEvent> events(retained);
  for (TraceEvent& ev : events) {
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
  }
  if (next(tok)) return false;  // trailing garbage

  out = ShardTelemetry();
  std::size_t ci = 0;
  std::size_t gi = 0;
  std::size_t hi = 0;
  for (std::size_t id = 0; id < reg.size(); ++id) {
    switch (reg.kind(id)) {
      case InstrumentKind::counter:
        out.metrics.add(id, counters[ci++]);
        break;
      case InstrumentKind::gauge:
        if (gauges[gi].first) out.metrics.set(id, gauges[gi].second);
        ++gi;
        break;
      case InstrumentKind::histogram:
        out.metrics.add_bins(id, hists[hi++]);
        break;
    }
  }
  for (const TraceEvent& ev : events) out.trace.push(ev);
  // Dropped events are gone but their count must survive the round trip
  // (the emitters' drop accounting depends on it).
  if (total > retained) out.trace.restore_total(total);
  return true;
}

std::string metrics_json_body(const MetricsShard& m) {
  const MetricsRegistry& reg = *m.registry();
  std::string out;
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ',';
    first = false;
  };
  for (std::size_t id = 0; id < reg.size(); ++id) {
    const InstrumentSpec& spec = reg.instruments()[id];
    switch (spec.kind) {
      case InstrumentKind::counter:
        sep();
        append_u64(out, spec.name.c_str(), m.counter(id));
        break;
      case InstrumentKind::gauge: {
        sep();
        const std::optional<double> v = m.gauge(id);
        if (v.has_value()) {
          append_double(out, spec.name.c_str(), *v);
        } else {
          out += '"';
          out += spec.name;
          out += "\":null";
        }
        break;
      }
      case InstrumentKind::histogram: {
        sep();
        out += '"';
        out += spec.name;
        out += "\":[";
        const std::vector<std::uint64_t>& bins = m.histogram(id);
        for (std::size_t b = 0; b < bins.size(); ++b) {
          if (b > 0) out += ',';
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%" PRIu64, bins[b]);
          out += buf;
        }
        out += ']';
        break;
      }
    }
  }
  return out;
}

std::string trace_event_json_body(const TraceEvent& ev) {
  std::string out;
  out += "\"event\":\"";
  out += trace_event_name(ev.type);
  out += '"';
  const auto field_u64 = [&](const char* key, std::uint64_t v) {
    out += ',';
    append_u64(out, key, v);
  };
  const auto field_d = [&](const char* key, double v) {
    out += ',';
    append_double(out, key, v);
  };
  field_u64("pkt", ev.packet);
  switch (ev.type) {
    case TraceEventType::hop_decision:
      field_u64("hop", ev.hop);
      field_u64("bw", ev.bw_index);
      out += ",\"filter\":\"";
      out += filter_flag_name(ev.flag);
      out += '"';
      field_d("est_jam_bw", ev.v0);
      field_d("jam_bw_guard", ev.v1);
      field_d("peak_db", ev.v2);
      field_d("peak_thresh_db", ev.v3);
      field_d("oob_db", ev.v4);
      field_d("oob_thresh_db", ev.v5);
      break;
    case TraceEventType::sync_attempt:
      field_u64("attempt", ev.hop);
      out += ",\"outcome\":\"";
      out += sync_outcome_name(ev.flag);
      out += '"';
      field_d("threshold", ev.v0);
      field_d("max_lag", ev.v1);
      field_d("quality", ev.v2);
      field_d("margin", ev.v3);
      break;
    case TraceEventType::sync_lock:
      field_u64("attempts", ev.hop);
      field_u64("reacquired", ev.flag);
      field_d("frame_start", ev.v0);
      field_d("phase", ev.v1);
      field_d("cfo", ev.v2);
      field_d("quality", ev.v3);
      field_d("margin", ev.v4);
      break;
    case TraceEventType::sync_loss:
      field_u64("attempts", ev.hop);
      break;
    case TraceEventType::fault_applied:
      field_u64("ordinal", ev.hop);
      field_u64("kind", ev.flag);
      field_d("offset", ev.v0);
      field_d("len", ev.v1);
      field_d("magnitude", ev.v2);
      break;
    case TraceEventType::packet_done:
      field_u64("hops", ev.hop);
      field_u64("delivered", ev.flag);
      field_d("sync_attempts", ev.v0);
      field_d("filter_fallbacks", ev.v1);
      field_d("detected", ev.v2);
      break;
    case TraceEventType::adapt_window:
      field_u64("window", ev.hop);
      field_u64("jammed", ev.flag);
      field_d("bad_frac", ev.v0);
      field_d("threshold", ev.v1);
      field_d("bad", ev.v2);
      field_d("streak", ev.v3);
      break;
    case TraceEventType::adapt_transition:
      field_u64("window", ev.hop);
      out += ",\"to\":\"";
      out += adapt_state_name(ev.flag);
      out += '"';
      field_d("from", ev.v0);
      field_d("symbols_per_hop", ev.v1);
      field_d("epoch", ev.v2);
      break;
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
  const LinkIds& ids = *telemetry->ids;
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
