#pragma once
// Runtime observability toggles: the one gate of the src/obs/ layer.  The
// instrumentation is always compiled in; this struct decides at run time
// which facilities are live.  All three default OFF, so a
// default-constructed FederationConfig runs the exact event stream the
// golden digests pin — enabling any facility only ever *reads*
// simulation state, never perturbs it.

namespace gridfed::obs {

struct ObsConfig {
  /// Event tracer: sim-time spans over the job lifecycle and the
  /// transport epochs, exported as Chrome trace-event JSON
  /// (ui.perfetto.dev loads it directly).
  bool trace = false;

  /// Metrics registry: counters/gauges/histograms sampled every
  /// kMetricsEpoch sim-seconds (obs/metrics.hpp) into a time-series.
  bool metrics = false;

  /// Auction forensics: one decision record per cleared book (scored
  /// bids, winner, price, losing margin) plus the coalition splits.
  bool forensics = false;

  [[nodiscard]] bool any() const noexcept {
    return trace || metrics || forensics;
  }
};

}  // namespace gridfed::obs
