#include "policy/scheduling_policy.hpp"

#include <memory>

#include "economy/cost_model.hpp"
#include "policy/auction_policy.hpp"
#include "policy/dbc_policy.hpp"
#include "policy/independent_policy.hpp"
#include "policy/no_economy_policy.hpp"

namespace gridfed::policy {

double SchedulingPolicy::settled_cost(const core::Pending& p,
                                      cluster::ResourceIndex exec) const {
  return economy::job_cost(p.job, ctx_.spec_of(p.job.origin),
                           ctx_.spec_of(exec), cfg_.cost_model);
}

void SchedulingPolicy::on_call_for_bids(const core::Message& msg) {
  (void)msg;  // a stray solicitation at a non-auction GFA is dropped
}

void SchedulingPolicy::on_bid(const core::Message& msg) {
  (void)msg;  // a stray bid at a non-auction GFA is dropped
}

market::Bid SchedulingPolicy::make_bid(const cluster::Job& job) {
  (void)job;
  return {};  // non-auction policies price nothing (infeasible bid)
}

std::unique_ptr<SchedulingPolicy> make_policy(core::SchedulingMode mode,
                                              SchedulerContext& ctx) {
  switch (mode) {
    case core::SchedulingMode::kIndependent:
      return std::make_unique<IndependentPolicy>(ctx);
    case core::SchedulingMode::kFederationNoEconomy:
      return std::make_unique<NoEconomyPolicy>(ctx);
    case core::SchedulingMode::kEconomy:
      return std::make_unique<DbcPolicy>(ctx);
    case core::SchedulingMode::kAuction:
      return std::make_unique<AuctionPolicy>(ctx);
  }
  __builtin_unreachable();
}

}  // namespace gridfed::policy
