#include "obs/forensics.hpp"

#include <ostream>

namespace gridfed::obs {

std::vector<const ClearingDecision*> ForensicsLedger::for_job(
    std::uint64_t job) const {
  std::vector<const ClearingDecision*> out;
  for (const ClearingDecision& d : decisions_) {
    if (d.job == job) out.push_back(&d);
  }
  return out;
}

void ForensicsLedger::write_json(std::ostream& out) const {
  out << "{\n  \"clearings\": [";
  for (std::size_t i = 0; i < decisions_.size(); ++i) {
    const ClearingDecision& d = decisions_[i];
    out << (i ? ",\n    {" : "\n    {") << "\"t\": " << d.t
        << ", \"job\": " << d.job << ", \"scoring\": \""
        << market::to_string(d.scoring) << "\", \"clearing\": \""
        << market::to_string(d.clearing) << "\", \"solicited\": [";
    for (std::size_t s = 0; s < d.solicited.size(); ++s) {
      out << (s ? "," : "") << d.solicited[s];
    }
    out << "], \"bids\": [";
    for (std::size_t b = 0; b < d.bids.size(); ++b) {
      const ScoredBid& bid = d.bids[b];
      out << (b ? ",{" : "{") << "\"bidder\": " << bid.bidder
          << ", \"ask\": " << bid.ask << ", \"completion\": "
          << bid.completion_estimate << ", \"feasible\": "
          << (bid.feasible ? "true" : "false")
          << ", \"score\": " << bid.score << "}";
    }
    out << "], \"awarded\": " << (d.awarded ? "true" : "false")
        << ", \"winner\": " << d.winner << ", \"winner_ask\": "
        << d.winner_ask << ", \"payment\": " << d.payment
        << ", \"runner_up_margin\": " << d.runner_up_margin
        << ", \"has_runner_up\": " << (d.has_runner_up ? "true" : "false")
        << "}";
  }
  out << "\n  ],\n  \"splits\": [";
  for (std::size_t i = 0; i < splits_.size(); ++i) {
    const SplitDecision& s = splits_[i];
    out << (i ? ",\n    {" : "\n    {") << "\"t\": " << s.t
        << ", \"job\": " << s.job << ", \"coalition\": " << s.coalition
        << ", \"executor\": " << s.executor << ", \"executor_ask\": "
        << s.executor_ask << ", \"payment\": " << s.payment
        << ", \"shares\": [";
    for (std::size_t m = 0; m < s.shares.size(); ++m) {
      out << (m ? ",{" : "{") << "\"member\": " << s.shares[m].first
          << ", \"share\": " << s.shares[m].second << "}";
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace gridfed::obs
