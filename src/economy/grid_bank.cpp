#include "economy/grid_bank.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sim/check.hpp"

namespace gridfed::economy {

GridBank::GridBank(std::size_t n_resources)
    : credits_(n_resources, 0.0), debits_(n_resources, 0.0) {
  GF_EXPECTS(n_resources > 0);
}

void GridBank::settle(const Settlement& s) {
  GF_EXPECTS(s.amount >= 0.0);
  GF_EXPECTS(s.provider < credits_.size());
  GF_EXPECTS(s.consumer_home < debits_.size());
  credits_[s.provider] += s.amount;
  debits_[s.consumer_home] += s.amount;
  by_user_[user_key(s.consumer_home, s.user)] += s.amount;
  log_.push_back(s);
  total_ += s.amount;
  ++txns_;
}

double GridBank::spent_by_user(cluster::ResourceIndex home,
                               std::uint32_t user) const {
  const auto it = by_user_.find(user_key(home, user));
  return it == by_user_.end() ? 0.0 : it->second;
}

std::vector<Settlement> GridBank::statement(
    cluster::ResourceIndex provider) const {
  std::vector<Settlement> entries;
  for (const auto& s : log_) {
    if (s.provider == provider) entries.push_back(s);
  }
  return entries;
}

double GridBank::incentive(cluster::ResourceIndex resource) const {
  GF_EXPECTS(resource < credits_.size());
  return credits_[resource];
}

double GridBank::spent_by_home(cluster::ResourceIndex resource) const {
  GF_EXPECTS(resource < debits_.size());
  return debits_[resource];
}

bool GridBank::balanced() const {
  const double credit_sum =
      std::accumulate(credits_.begin(), credits_.end(), 0.0);
  const double debit_sum = std::accumulate(debits_.begin(), debits_.end(), 0.0);
  const double scale = std::max({credit_sum, debit_sum, 1.0});
  return std::abs(credit_sum - debit_sum) <= 1e-9 * scale &&
         std::abs(credit_sum - total_) <= 1e-9 * scale;
}

}  // namespace gridfed::economy
