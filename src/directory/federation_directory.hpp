#pragma once
// The shared federation directory (paper Fig. 1).  A decentralized
// database of quotes supporting the four primitives subscribe / quote /
// unsubscribe / query; gridfed simulates it as a consistent in-process
// index while metering message costs under the O(log n) overlay model
// (see query_cost.hpp).  "Query" answers the superscheduler's central
// question: *which is the r-th cheapest (or fastest) cluster?*
//
// Rankings are maintained incrementally: a hash index replaces the old
// linear resource scan, and every mutation repositions exactly one entry
// in each ordered ranking (binary search + memmove) instead of
// invalidating and re-sorting the whole directory.  Load-hint refreshes —
// the highest-frequency publish under the §2.3 coordination extension —
// no longer touch the rankings at all.

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "directory/query_cost.hpp"
#include "directory/quote.hpp"
#include "sim/flat_map.hpp"
#include "sim/types.hpp"

namespace gridfed::directory {

/// Filter for ranked bulk queries (query_top_k).  Default-constructed =
/// no filtering.
struct QueryFilter {
  /// Quotes advertising fewer processors are skipped.
  std::uint32_t min_processors = 0;
  /// This resource is skipped (the querier itself, typically).
  cluster::ResourceIndex exclude = cluster::kNoResource;
  /// Quotes whose advertised load exceeds this are skipped (quotes
  /// without a hint are never skipped) — the §2.3 coordination filter.
  double max_load_hint = std::numeric_limits<double>::infinity();
};

/// Decentralized quote index with ranked queries.
///
/// Rankings are total orders: price ties (and MIPS ties between replicas)
/// break by resource index, so walks are deterministic.
class FederationDirectory {
 public:
  /// subscribe — a GFA joins the federation and publishes its quote.
  /// Re-subscribing an existing resource refreshes its quote.
  void subscribe(const Quote& quote);

  /// unsubscribe — removes the resource's advertisement.
  void unsubscribe(cluster::ResourceIndex resource);

  /// quote — refreshes the advertised price (owner repricing; used by the
  /// dynamic-pricing extension).
  void update_price(cluster::ResourceIndex resource, double price);

  /// Coordination extension (paper §2.3): refreshes the advertised load.
  void update_load_hint(cluster::ResourceIndex resource, double load,
                        sim::SimTime now);

  /// query — the r-th best quote under `order` (r is 1-based, the paper's
  /// "r-th cheapest / r-th fastest").  Meters one O(log n) query.
  /// Returns nullopt when r exceeds the number of subscribed resources.
  [[nodiscard]] std::optional<Quote> query(OrderBy order, std::uint32_t r);

  /// Like query(), but skips resources whose advertised load exceeds
  /// `load_threshold` (resources without a hint are never skipped).  The
  /// coordination extension uses this to avoid negotiating with saturated
  /// sites.  Rank r counts *after* filtering.
  [[nodiscard]] std::optional<Quote> query_filtered(OrderBy order,
                                                    std::uint32_t r,
                                                    double load_threshold);

  /// Bulk ranked query: fills `out` (cleared first) with the best quotes
  /// under `order` that pass `filter`, best first, stopping after `k`
  /// results (k == 0 means no cap).  Meters ONE O(log n) query — the
  /// results ride back on the same overlay route — which is what makes a
  /// ranked walk over the whole candidate set (auction solicitation)
  /// affordable.  Reusing one `out` buffer across calls avoids
  /// allocation.
  void query_top_k(OrderBy order, std::uint32_t k, const QueryFilter& filter,
                   std::vector<Quote>& out);

  /// Current quote of one resource (no message cost: local cache peek).
  [[nodiscard]] std::optional<Quote> peek(
      cluster::ResourceIndex resource) const;

  [[nodiscard]] std::size_t size() const noexcept { return quotes_.size(); }

  /// Overlay traffic metered so far.
  [[nodiscard]] const DirectoryTraffic& traffic() const noexcept {
    return traffic_;
  }
  void reset_traffic() noexcept { traffic_ = {}; }

  /// Test hook: true when the incrementally maintained rankings equal a
  /// from-scratch re-sort of the quote store.  O(n log n); not metered.
  [[nodiscard]] bool rankings_match_rebuild() const;

 private:
  /// One entry of an ordered ranking.  The sort key is denormalized into
  /// the entry so ordered maintenance never chases the quote store.
  struct RankEntry {
    double key = 0.0;  ///< price (ascending) or -mips (ascending)
    cluster::ResourceIndex resource = cluster::kNoResource;

    [[nodiscard]] friend bool operator<(const RankEntry& a,
                                        const RankEntry& b) {
      if (a.key != b.key) return a.key < b.key;
      return a.resource < b.resource;
    }
    [[nodiscard]] friend bool operator==(const RankEntry& a,
                                         const RankEntry& b) {
      return a.key == b.key && a.resource == b.resource;
    }
  };

  [[nodiscard]] static RankEntry price_entry(const Quote& q) noexcept {
    return {q.price, q.resource};
  }
  // MIPS rank descending; negating the key reuses the ascending order.
  [[nodiscard]] static RankEntry speed_entry(const Quote& q) noexcept {
    return {-q.mips, q.resource};
  }

  /// Inserts/removes one entry keeping the ranking sorted.  O(log n)
  /// search + O(n) element shift — n is the federation size, far cheaper
  /// than the full re-sort this replaces, and stays cache-friendly.
  static void rank_insert(std::vector<RankEntry>& ranking, RankEntry entry);
  static void rank_erase(std::vector<RankEntry>& ranking, RankEntry entry);

  void insert_rankings(const Quote& q);
  void erase_rankings(const Quote& q);

  [[nodiscard]] const Quote& quote_at(cluster::ResourceIndex resource) const;
  void meter_query();

  std::vector<Quote> quotes_;  // unordered storage (swap-and-pop erase)
  sim::FlatMap<cluster::ResourceIndex, std::size_t> index_;
  std::vector<RankEntry> by_price_;  // ascending price
  std::vector<RankEntry> by_speed_;  // descending mips
  DirectoryTraffic traffic_;
};

}  // namespace gridfed::directory
