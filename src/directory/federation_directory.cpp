#include "directory/federation_directory.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace gridfed::directory {

void FederationDirectory::rank_insert(std::vector<RankEntry>& ranking,
                                      RankEntry entry) {
  ranking.insert(std::lower_bound(ranking.begin(), ranking.end(), entry),
                 entry);
}

void FederationDirectory::rank_erase(std::vector<RankEntry>& ranking,
                                     RankEntry entry) {
  const auto it =
      std::lower_bound(ranking.begin(), ranking.end(), entry);
  GF_EXPECTS(it != ranking.end() && *it == entry);
  ranking.erase(it);
}

void FederationDirectory::insert_rankings(const Quote& q) {
  rank_insert(by_price_, price_entry(q));
  rank_insert(by_speed_, speed_entry(q));
}

void FederationDirectory::erase_rankings(const Quote& q) {
  rank_erase(by_price_, price_entry(q));
  rank_erase(by_speed_, speed_entry(q));
}

const Quote& FederationDirectory::quote_at(
    cluster::ResourceIndex resource) const {
  const auto it = index_.find(resource);
  GF_EXPECTS(it != index_.end());
  return quotes_[it->second];
}

void FederationDirectory::subscribe(const Quote& quote) {
  const auto it = index_.find(quote.resource);
  if (it != index_.end()) {
    Quote& existing = quotes_[it->second];
    erase_rankings(existing);
    existing = quote;
    insert_rankings(existing);
  } else {
    index_.emplace(quote.resource, quotes_.size());
    quotes_.push_back(quote);
    insert_rankings(quote);
  }
  traffic_.publishes += 1;
  traffic_.publish_messages += publish_message_cost(quotes_.size());
}

void FederationDirectory::unsubscribe(cluster::ResourceIndex resource) {
  const auto it = index_.find(resource);
  GF_EXPECTS(it != index_.end());
  const std::size_t pos = it->second;
  erase_rankings(quotes_[pos]);
  index_.erase(it);
  // Swap-and-pop keeps the quote store dense; rankings reference quotes
  // by resource, so only the moved quote's index entry needs fixing.
  if (pos + 1 != quotes_.size()) {
    quotes_[pos] = quotes_.back();
    index_[quotes_[pos].resource] = pos;
  }
  quotes_.pop_back();
  traffic_.publishes += 1;
  traffic_.publish_messages += publish_message_cost(quotes_.size() + 1);
}

void FederationDirectory::update_price(cluster::ResourceIndex resource,
                                       double price) {
  const auto it = index_.find(resource);
  GF_EXPECTS(it != index_.end());
  Quote& q = quotes_[it->second];
  rank_erase(by_price_, price_entry(q));
  q.price = price;
  rank_insert(by_price_, price_entry(q));
  // The speed ranking is untouched: repricing does not change MIPS.
  traffic_.publishes += 1;
  traffic_.publish_messages += publish_message_cost(quotes_.size());
}

void FederationDirectory::update_load_hint(cluster::ResourceIndex resource,
                                           double load, sim::SimTime now) {
  const auto it = index_.find(resource);
  GF_EXPECTS(it != index_.end());
  quotes_[it->second].load_hint = load;
  quotes_[it->second].hint_time = now;
  traffic_.publishes += 1;
  traffic_.publish_messages += publish_message_cost(quotes_.size());
  // Load refreshes do not change price/speed rankings.
}

void FederationDirectory::meter_query() {
  traffic_.queries += 1;
  traffic_.query_messages +=
      query_message_cost(std::max<std::size_t>(quotes_.size(), 1));
}

std::optional<Quote> FederationDirectory::query(OrderBy order,
                                                std::uint32_t r) {
  GF_EXPECTS(r >= 1);
  meter_query();
  if (r > quotes_.size()) return std::nullopt;
  const auto& ranking = order == OrderBy::kCheapest ? by_price_ : by_speed_;
  return quote_at(ranking[r - 1].resource);
}

std::optional<Quote> FederationDirectory::query_filtered(
    OrderBy order, std::uint32_t r, double load_threshold) {
  GF_EXPECTS(r >= 1);
  meter_query();
  // Filtering only ever shrinks the candidate set, so a rank beyond the
  // subscription count can be answered without walking the ranking —
  // mirroring query()'s guard (and its traffic accounting, above).
  if (r > quotes_.size()) return std::nullopt;
  const auto& ranking = order == OrderBy::kCheapest ? by_price_ : by_speed_;
  std::uint32_t seen = 0;
  for (const RankEntry& entry : ranking) {
    const Quote& q = quote_at(entry.resource);
    if (q.has_load_hint() && q.load_hint > load_threshold) continue;
    if (++seen == r) return q;
  }
  return std::nullopt;
}

void FederationDirectory::query_top_k(OrderBy order, std::uint32_t k,
                                      const QueryFilter& filter,
                                      std::vector<Quote>& out) {
  out.clear();
  meter_query();
  const auto& ranking = order == OrderBy::kCheapest ? by_price_ : by_speed_;
  for (const RankEntry& entry : ranking) {
    if (entry.resource == filter.exclude) continue;
    const Quote& q = quote_at(entry.resource);
    if (q.processors < filter.min_processors) continue;
    if (q.has_load_hint() && q.load_hint > filter.max_load_hint) continue;
    out.push_back(q);
    if (k != 0 && out.size() >= k) break;
  }
}

std::optional<Quote> FederationDirectory::peek(
    cluster::ResourceIndex resource) const {
  const auto it = index_.find(resource);
  if (it == index_.end()) return std::nullopt;
  return quotes_[it->second];
}

bool FederationDirectory::rankings_match_rebuild() const {
  std::vector<RankEntry> price;
  std::vector<RankEntry> speed;
  price.reserve(quotes_.size());
  speed.reserve(quotes_.size());
  for (const Quote& q : quotes_) {
    price.push_back(price_entry(q));
    speed.push_back(speed_entry(q));
  }
  std::sort(price.begin(), price.end());
  std::sort(speed.begin(), speed.end());
  return price == by_price_ && speed == by_speed_;
}

}  // namespace gridfed::directory
