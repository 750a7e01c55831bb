#pragma once
// The observability umbrella: one Observer owns the Tracer, the
// MetricsRegistry, and the ForensicsLedger.  The Federation builds it
// before any other layer and hands each instrumented layer (Gfa, the
// scheduling policies, the transport, the coalition manager, the
// membership service) the same nullable pointer at construction; the
// kernel's dispatch probe is installed on the Simulation directly.
//
// ObsConfig is the one gate: the Federation only constructs an Observer
// when ObsConfig::any(), so with the default (all-off) config the
// pointer every layer holds is null and each GF_OBS site is one
// predictable branch.  The disabled path is bit-identical to a run
// without the subsystem: no extra events, no extra RNG draws, no
// reordering — pinned by the golden digests in
// tests/test_observability.cpp.
//
// Instrumentation never *reads back* from the observer to make
// decisions: observation is strictly one-way, which is what makes the
// enabled path outcome-identical too.

#include <memory>
#include <string>
#include <vector>

#include "obs/forensics.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_config.hpp"
#include "obs/tracer.hpp"

namespace gridfed::obs {

class Observer {
 public:
  /// `track_names` labels the trace tracks (one per cluster; the Tracer
  /// appends its own transport track); `participants` sizes the
  /// per-participant metric arrays.
  Observer(const ObsConfig& cfg, std::vector<std::string> track_names,
           std::size_t participants);

  [[nodiscard]] Tracer* trace() noexcept { return tracer_.get(); }
  [[nodiscard]] MetricsRegistry* metrics() noexcept {
    return metrics_.get();
  }
  [[nodiscard]] ForensicsLedger* forensics() noexcept {
    return forensics_.get();
  }
  [[nodiscard]] const Tracer* trace() const noexcept {
    return tracer_.get();
  }
  [[nodiscard]] const MetricsRegistry* metrics() const noexcept {
    return metrics_.get();
  }
  [[nodiscard]] const ForensicsLedger* forensics() const noexcept {
    return forensics_.get();
  }

  [[nodiscard]] std::uint32_t transport_track() const noexcept {
    return tracer_ ? tracer_->transport_track() : 0;
  }

  // ---- guarded conveniences: no-ops when the facility is off ----------------
  void begin(sim::SimTime t, SpanKind kind, std::uint32_t track,
             std::uint64_t id, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
             double v = 0.0) {
    if (tracer_) tracer_->begin(t, kind, track, id, a0, a1, v);
  }
  void end(sim::SimTime t, SpanKind kind, std::uint32_t track,
           std::uint64_t id, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
           double v = 0.0) {
    if (tracer_) tracer_->end(t, kind, track, id, a0, a1, v);
  }
  void instant(sim::SimTime t, SpanKind kind, std::uint32_t track,
               std::uint64_t id, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
               double v = 0.0) {
    if (tracer_) tracer_->instant(t, kind, track, id, a0, a1, v);
  }
  void count(Counter c, std::uint64_t n = 1) {
    if (metrics_) metrics_->count(c, n);
  }
  void set_gauge(Gauge g, std::uint64_t v) {
    if (metrics_) metrics_->set_gauge(g, v);
  }
  void observe(Histo h, double value) {
    if (metrics_) metrics_->observe(h, value);
  }
  void count_decline(std::size_t participant) {
    if (metrics_) metrics_->count_decline(participant);
  }
  void count_miss(std::size_t participant) {
    if (metrics_) metrics_->count_miss(participant);
  }

  [[nodiscard]] bool forensics_on() const noexcept {
    return forensics_ != nullptr;
  }

 private:
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<ForensicsLedger> forensics_;
};

}  // namespace gridfed::obs

/// Call-site shorthand: null-check the observer handle, then invoke a
/// member.  `GF_OBS(observer_, begin(now, SpanKind::kJob, ...))`.
#define GF_OBS(obs_expr, call)                                     \
  do {                                                             \
    if (::gridfed::obs::Observer* gf_obs_ = (obs_expr)) {          \
      gf_obs_->call;                                               \
    }                                                              \
  } while (false)
