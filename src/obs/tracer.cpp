#include "obs/tracer.hpp"

#include <ostream>

namespace gridfed::obs {
namespace {

// The trace format's ts unit is microseconds; the simulation clock is
// seconds.  One multiply keeps relative ordering exact for the integral
// second timestamps the DES mostly produces.
double to_us(sim::SimTime t) { return t * 1e6; }

const char* phase_letter(TracePhase phase) {
  switch (phase) {
    case TracePhase::kBegin: return "b";
    case TracePhase::kEnd: return "e";
    case TracePhase::kInstant: return "i";
  }
  return "i";
}

void write_escaped(std::ostream& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
}

}  // namespace

Tracer::Tracer(std::vector<std::string> track_names)
    : track_names_(std::move(track_names)) {
  track_names_.emplace_back("transport");
  records_.reserve(1u << 16);
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Process-name metadata gives every track a human label in the UI.
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    if (!first) out << ",";
    first = false;
    out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << (i + 1)
        << ",\"tid\":0,\"args\":{\"name\":\"";
    write_escaped(out, track_names_[i]);
    out << "\"}}";
  }
  for (const TraceRecord& r : records_) {
    if (!first) out << ",";
    first = false;
    out << "{\"ph\":\"" << phase_letter(r.phase) << "\",\"cat\":\""
        << to_string(r.kind) << "\",\"name\":\"" << to_string(r.kind)
        << "\",\"pid\":" << (r.track + 1) << ",\"tid\":0,\"ts\":"
        << to_us(r.t);
    if (r.phase != TracePhase::kInstant) {
      out << ",\"id\":\"0x" << std::hex << r.id << std::dec << "\"";
    } else {
      out << ",\"s\":\"p\"";
    }
    out << ",\"args\":{\"id\":" << r.id << ",\"a0\":" << r.a0
        << ",\"a1\":" << r.a1 << ",\"v\":" << r.v << "}}";
  }
  out << "]}";
}

}  // namespace gridfed::obs
