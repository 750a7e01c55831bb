#include "obs/metrics.hpp"

#include <ostream>

namespace gridfed::obs {
namespace {

template <typename Array>
void write_u64_array(std::ostream& out, const Array& values) {
  out << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out << ",";
    out << values[i];
  }
  out << "]";
}

}  // namespace

MetricsRegistry::MetricsRegistry(std::size_t participants, sim::SimTime epoch)
    : epoch_(epoch), declines_(participants, 0), misses_(participants, 0) {
  series_.reserve(256);
}

void MetricsRegistry::take_sample(sim::SimTime t) {
  MetricsSample sample;
  sample.t = t;
  sample.counters = counters_;
  sample.gauges = gauges_;
  if (ledger_sampler_) ledger_sampler_(sample);
  series_.push_back(sample);
}

void MetricsRegistry::write_json(std::ostream& out) const {
  out << "{\n  \"epoch\": " << epoch_ << ",\n  \"samples\": [";
  for (std::size_t i = 0; i < series_.size(); ++i) {
    const MetricsSample& s = series_[i];
    out << (i ? ",\n    {" : "\n    {") << "\"t\": " << s.t;
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      out << ", \"" << to_string(static_cast<Counter>(c))
          << "\": " << s.counters[c];
    }
    for (std::size_t g = 0; g < kGaugeCount; ++g) {
      out << ", \"" << to_string(static_cast<Gauge>(g))
          << "\": " << s.gauges[g];
    }
    out << ", \"msgs_by_type\": ";
    write_u64_array(out, s.msgs_by_type);
    out << ", \"bytes_by_type\": ";
    write_u64_array(out, s.bytes_by_type);
    out << ", \"total_msgs\": " << s.total_msgs
        << ", \"total_bytes\": " << s.total_bytes
        << ", \"relay_msgs\": " << s.relay_msgs << "}";
  }
  out << "\n  ],\n  \"histograms\": {";
  for (std::size_t h = 0; h < kHistoCount; ++h) {
    const Histogram& hist = histograms_[h];
    out << (h ? ",\n    \"" : "\n    \"")
        << to_string(static_cast<Histo>(h)) << "\": {\"total\": "
        << hist.total << ", \"sum\": " << hist.sum << ", \"buckets\": ";
    write_u64_array(out, hist.buckets);
    out << "}";
  }
  out << "\n  },\n  \"per_participant\": {\"declines\": ";
  write_u64_array(out, declines_);
  out << ", \"misses\": ";
  write_u64_array(out, misses_);
  out << "}\n}\n";
}

}  // namespace gridfed::obs
