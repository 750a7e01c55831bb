#pragma once
// Sim-time event tracer.  Instrumentation sites append fixed-size POD
// records (trace_event.hpp); at the end of a run the buffer is rendered
// to Chrome trace-event JSON — async "b"/"e" span pairs and "i"
// instants — which ui.perfetto.dev and chrome://tracing load directly.
//
// Design constraints, in order:
//   1. Disabled-path purity: the Tracer is only ever constructed when
//      ObsConfig::trace is set, and call sites go through the null-
//      checked GF_OBS macro, so a dark run touches none of this.
//   2. Hot-path cost: begin/end/instant are a branch + struct append
//      into a pre-reserved vector.  No strings, no formatting, no
//      timestamps other than the sim clock the caller already holds.
//   3. Export fidelity: records are appended in simulation order, so
//      timestamps are globally monotone by construction and span pairs
//      (same kind + id + track) always balance b-before-e.
//
// Track model: one Perfetto "process" per cluster (pid = track + 1, so
// pid 0 is never used) plus a dedicated transport track for overlay
// epochs/relays.  Sim seconds export as microseconds (ts = t * 1e6)
// because the trace format's ts unit is microseconds.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace_event.hpp"
#include "sim/types.hpp"

namespace gridfed::obs {

class Tracer {
 public:
  /// `track_names[i]` labels track i in the exported trace; call sites
  /// use cluster ResourceIndex values as track ids directly.  An extra
  /// "transport" track is appended after the cluster tracks.
  explicit Tracer(std::vector<std::string> track_names);

  /// The appended overlay track, for transport-layer records.
  [[nodiscard]] std::uint32_t transport_track() const noexcept {
    return static_cast<std::uint32_t>(track_names_.size() - 1);
  }

  void begin(sim::SimTime t, SpanKind kind, std::uint32_t track,
             std::uint64_t id, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
             double v = 0.0) {
    append(t, TracePhase::kBegin, kind, track, id, a0, a1, v);
  }
  void end(sim::SimTime t, SpanKind kind, std::uint32_t track,
           std::uint64_t id, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
           double v = 0.0) {
    append(t, TracePhase::kEnd, kind, track, id, a0, a1, v);
  }
  void instant(sim::SimTime t, SpanKind kind, std::uint32_t track,
               std::uint64_t id, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
               double v = 0.0) {
    append(t, TracePhase::kInstant, kind, track, id, a0, a1, v);
  }

  [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  /// Renders the whole buffer as a Chrome trace-event JSON object:
  /// process_name metadata per track, then every record in append
  /// (= simulation) order.
  void write_chrome_trace(std::ostream& out) const;

 private:
  void append(sim::SimTime t, TracePhase phase, SpanKind kind,
              std::uint32_t track, std::uint64_t id, std::uint64_t a0,
              std::uint64_t a1, double v) {
    records_.push_back(TraceRecord{t, phase, kind, track, id, a0, a1, v});
  }

  std::vector<std::string> track_names_;
  std::vector<TraceRecord> records_;
};

}  // namespace gridfed::obs
