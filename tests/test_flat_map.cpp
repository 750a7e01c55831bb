// Model tests for sim::FlatMap / sim::FlatSet (sim/flat_map.hpp): seeded
// random operation sequences checked against std::unordered_map after
// every operation, over keys chosen to share home cells and to wrap
// past the end of the index (so backward-shift deletion runs through
// wrapped probe clusters), with a move-only value that must survive the
// erase swap and table growth; plus the no-allocation contract of a
// warm table.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/flat_map.hpp"
#include "sim/random.hpp"

#include "alloc_counter.hpp"

namespace gridfed::sim {
namespace {

using Map = FlatMap<std::uint64_t, std::unique_ptr<int>>;
using Reference = std::unordered_map<std::uint64_t, int>;

/// `count` keys whose home cell is `cell` in an index of `buckets`
/// cells, searched upward from `from`.
std::vector<std::uint64_t> keys_homed_at(std::size_t cell, std::size_t buckets,
                                         std::size_t count,
                                         std::uint64_t from) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = from; keys.size() < count; ++k) {
    if (Map::home_cell(k, buckets) == cell) keys.push_back(k);
  }
  return keys;
}

/// A key pool of `size` distinct keys for an index that settles at
/// `buckets` cells: runs homed at the last two cells (their probe runs
/// wrap to cell 0), at cells 0 and 1 (which the wrapped runs collide
/// with) and at one mid cell, filled up with random keys.
std::vector<std::uint64_t> key_pool(std::size_t buckets, std::size_t size,
                                    Rng& rng) {
  std::vector<std::uint64_t> pool;
  const auto add = [&](std::size_t cell, std::size_t count) {
    for (const std::uint64_t k :
         keys_homed_at(cell, buckets, count, rng.uniform_int(0, 1u << 20))) {
      if (std::find(pool.begin(), pool.end(), k) == pool.end()) {
        pool.push_back(k);
      }
    }
  };
  add(buckets - 1, 6);
  add(buckets - 2, 4);
  add(0, 4);
  add(1, 3);
  add(buckets / 2, 5);
  while (pool.size() < size) {
    const std::uint64_t k = rng();
    if (std::find(pool.begin(), pool.end(), k) == pool.end()) {
      pool.push_back(k);
    }
  }
  return pool;
}

/// Size, membership of every pool key, and the iterated (key, value)
/// set all match the reference.
void expect_matches(const Map& map, const FlatSet<std::uint64_t>& set,
                    const Reference& ref,
                    const std::vector<std::uint64_t>& pool) {
  ASSERT_EQ(map.size(), ref.size());
  ASSERT_EQ(set.size(), ref.size());
  ASSERT_EQ(map.empty(), ref.empty());
  for (const std::uint64_t k : pool) {
    const auto it = ref.find(k);
    ASSERT_EQ(map.contains(k), it != ref.end()) << "key " << k;
    ASSERT_EQ(set.contains(k), it != ref.end()) << "key " << k;
    const auto found = map.find(k);
    if (it == ref.end()) {
      ASSERT_TRUE(found == map.end());
    } else {
      ASSERT_TRUE(found != map.end());
      ASSERT_EQ(found->first, k);
      ASSERT_EQ(*found->second, it->second);
    }
  }
  std::vector<std::pair<std::uint64_t, int>> got;
  for (const auto& [k, v] : map) got.emplace_back(k, *v);
  std::vector<std::pair<std::uint64_t, int>> want(ref.begin(), ref.end());
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got, want);
}

/// The operations run_model draws from, with their weights out of 100.
enum class Op { kEmplace, kInsertOrAssign, kSubscript, kFind, kEraseKey,
                kEraseIterator };

Op draw_op(Rng& rng) {
  const std::uint64_t r = rng.uniform_int(0, 99);
  if (r < 22) return Op::kEmplace;
  if (r < 37) return Op::kInsertOrAssign;
  if (r < 49) return Op::kSubscript;
  if (r < 64) return Op::kFind;
  if (r < 84) return Op::kEraseKey;
  return Op::kEraseIterator;
}

/// Runs `ops` random operations over `pool`, each a clear() with
/// probability `clear_rate`, and checks the table against the reference
/// after each.  `peak` receives the largest size reached.
void run_model(std::uint64_t seed, const std::vector<std::uint64_t>& pool,
               int ops, double clear_rate, std::size_t& peak) {
  Rng rng(seed);
  Map map;
  FlatSet<std::uint64_t> set;
  Reference ref;
  peak = 0;
  int next_value = 0;
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t key = pool[rng.uniform_int(0, pool.size() - 1)];
    const int value = ++next_value;
    const bool present = ref.contains(key);
    if (rng.bernoulli(clear_rate)) {
      map.clear();
      set.clear();
      ref.clear();
    } else {
      switch (draw_op(rng)) {
        case Op::kEmplace: {  // constructs nothing when present
          const auto [it, inserted] =
              map.emplace(key, std::make_unique<int>(value));
          ASSERT_EQ(inserted, !present);
          ASSERT_EQ(set.insert(key), !present);
          ASSERT_EQ(it->first, key);
          if (inserted) ref[key] = value;
          ASSERT_EQ(*it->second, ref[key]);
          break;
        }
        case Op::kInsertOrAssign: {
          const auto [it, inserted] =
              map.insert_or_assign(key, std::make_unique<int>(value));
          ASSERT_EQ(inserted, !present);
          (void)set.insert(key);
          ref[key] = value;
          ASSERT_EQ(*it->second, value);
          break;
        }
        case Op::kSubscript: {  // value-initialized on first touch
          std::unique_ptr<int>& slot = map[key];
          ASSERT_EQ(slot == nullptr, !present);
          if (present) {
            ASSERT_EQ(*slot, ref[key]);
          }
          slot = std::make_unique<int>(value);
          (void)set.insert(key);
          ref[key] = value;
          break;
        }
        case Op::kFind: {
          const auto it = map.find(key);
          ASSERT_EQ(it != map.end(), present);
          if (present) {
            ASSERT_EQ(*it->second, ref[key]);
          }
          break;
        }
        case Op::kEraseKey:
          ASSERT_EQ(map.erase(key), ref.erase(key));
          ASSERT_EQ(set.erase(key), present ? 1u : 0u);
          break;
        case Op::kEraseIterator: {  // at a random position
          if (map.empty()) break;
          const auto pos = static_cast<std::ptrdiff_t>(
              rng.uniform_int(0, map.size() - 1));
          const std::uint64_t victim = (map.begin() + pos)->first;
          const auto after = map.erase(map.begin() + pos);
          ASSERT_TRUE(after == map.begin() + pos);  // the moved last entry
          ASSERT_EQ(ref.erase(victim), 1u);
          ASSERT_EQ(set.erase(victim), 1u);
          break;
        }
      }
    }
    peak = std::max(peak, map.size());
    expect_matches(map, set, ref, pool);
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed << ", operation " << op;
      return;
    }
  }
}

TEST(FlatMap, ClusteredKeysMatchUnorderedMap) {
  // 32 keys settle the index at 64 cells (the load stays <= 1/2), where
  // 17 of them sit in runs homed at cells 62, 63, 0 and 1: one wrapped
  // cluster that every erase shifts through.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed * 977);
    const std::vector<std::uint64_t> pool = key_pool(64, 32, rng);
    ASSERT_EQ(pool.size(), 32u);
    std::size_t peak = 0;
    run_model(seed, pool, 20000, 0.01, peak);
    EXPECT_GE(peak, 17u) << "seed " << seed;  // the index reached 64 cells
  }
}

TEST(FlatMap, LargeTableMatchesUnorderedMap) {
  // The same clustered runs for an index of 1024 cells, among 600 keys
  // (about half of them present at a time, so the index reaches 1024).
  Rng rng(4242);
  const std::vector<std::uint64_t> pool = key_pool(1024, 600, rng);
  std::size_t peak = 0;
  run_model(4242, pool, 12000, 1.0 / 4000, peak);
  EXPECT_GE(peak, 257u);
}

TEST(FlatMap, ClusteredKeysShareHomeCells) {
  // The model tests' premise: the chosen keys really collide and wrap.
  Rng rng(977);
  const std::vector<std::uint64_t> pool = key_pool(64, 32, rng);
  Map map;
  for (const std::uint64_t k : pool) map.emplace(k, std::make_unique<int>(1));
  ASSERT_EQ(map.bucket_count(), 64u);
  std::size_t at_last = 0;
  std::size_t at_first = 0;
  for (const std::uint64_t k : pool) {
    if (Map::home_cell(k, 64) == 63) ++at_last;
    if (Map::home_cell(k, 64) == 0) ++at_first;
  }
  EXPECT_GE(at_last, 6u);
  EXPECT_GE(at_first, 4u);
}

TEST(FlatMap, MoveOnlyValuesSurviveGrowthAndEraseSwap) {
  Map map;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    map.emplace(k, std::make_unique<int>(static_cast<int>(k)));
  }
  for (std::uint64_t k = 0; k < 1000; k += 3) EXPECT_EQ(map.erase(k), 1u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const auto it = map.find(k);
    ASSERT_EQ(it != map.end(), k % 3 != 0);
    if (it != map.end()) {
      EXPECT_EQ(*it->second, static_cast<int>(k));
    }
  }
  EXPECT_EQ(map.at(1), map.find(1)->second);
  EXPECT_THROW((void)map.at(0), ContractViolation);
}

TEST(FlatMap, WarmTableInsertEraseAllocatesNothing) {
  // Once both arrays reached their high-water mark, insert/erase cycles
  // and clear() reuse them: a job table in steady state is heap-silent.
  FlatMap<std::uint64_t, std::uint64_t> map;
  FlatSet<std::uint64_t> set;
  Rng rng(7);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 300; ++i) keys.push_back(rng());
  const auto cycle = [&] {
    for (const std::uint64_t k : keys) {
      map.emplace(k, k);
      map[k ^ 1] += 1;
      (void)set.insert(k);
    }
    for (std::size_t i = 0; i < keys.size(); i += 2) {
      map.erase(keys[i]);
      map.erase(map.find(keys[i] ^ 1));
      set.erase(keys[i]);
    }
    for (const std::uint64_t k : keys) map.insert_or_assign(k, k + 1);
    map.clear();
    set.clear();
  };
  cycle();  // warm-up: both arrays grow to their high-water mark
  const std::uint64_t before = g_allocations.load();
  for (int round = 0; round < 4; ++round) cycle();
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

}  // namespace
}  // namespace gridfed::sim
