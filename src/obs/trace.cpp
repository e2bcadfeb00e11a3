#include "obs/trace.hpp"

#include "core/contracts.hpp"

namespace bhss::obs {

const char* trace_scope_name(TraceScopeId id) noexcept {
  switch (id) {
    case TraceScopeId::receive: return "receive";
    case TraceScopeId::choose_filter: return "choose_filter";
    case TraceScopeId::filter_apply: return "filter_apply";
    case TraceScopeId::preamble_acquire: return "preamble_acquire";
    case TraceScopeId::carrier_track: return "carrier_track";
    case TraceScopeId::demod_despread: return "demod_despread";
    case TraceScopeId::fault_inject: return "fault_inject";
  }
  return "unknown";
}

TraceSink::TraceSink(std::size_t capacity) {
  BHSS_REQUIRE(capacity >= 1, "TraceSink: capacity must be >= 1");
  ring_.resize(capacity);
}

void TraceSink::push(const TraceEvent& ev) noexcept {
  ring_[next_] = ev;
  next_ = (next_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
  ++total_;
}

std::vector<TraceEvent> TraceSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  // Oldest event sits at `next_` once the ring has wrapped, else at 0.
  const std::size_t start = (size_ == ring_.size()) ? next_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void TraceSink::note_scope(TraceScopeId id, std::uint64_t ns) noexcept {
  TraceScopeStats& s = scopes_[static_cast<std::size_t>(id)];
  s.calls += 1;
  s.total_ns += ns;
  if (ns > s.max_ns) s.max_ns = ns;
}

void TraceSink::restore_total(std::uint64_t total) noexcept {
  if (total > total_) total_ = total;
}

void TraceSink::merge_scopes_from(const TraceSink& other) noexcept {
  for (std::size_t i = 0; i < kNumTraceScopes; ++i) {
    scopes_[i].calls += other.scopes_[i].calls;
    scopes_[i].total_ns += other.scopes_[i].total_ns;
    if (other.scopes_[i].max_ns > scopes_[i].max_ns) scopes_[i].max_ns = other.scopes_[i].max_ns;
  }
}

}  // namespace bhss::obs
