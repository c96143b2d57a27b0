#include "expindex/expindex.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"

namespace dsi::expindex {
namespace {

std::vector<uint64_t> RandomKeys(size_t n, uint64_t seed,
                                 int64_t max_key = 1 << 20) {
  common::Rng rng(seed);
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<uint64_t>(rng.UniformInt(0, max_key)));
  }
  return keys;
}

TEST(ExpIndexTest, StructureInvariants) {
  const ExpIndex index(RandomKeys(300, 1), 64, ExpConfig{});
  EXPECT_TRUE(std::is_sorted(index.sorted_keys().begin(),
                             index.sorted_keys().end()));
  // Chunk minima strictly increase.
  for (uint32_t c = 1; c < index.num_chunks(); ++c) {
    EXPECT_GT(index.ChunkMinKey(c), index.ChunkMinKey(c - 1));
  }
  // entries = ceil(log2(chunks)).
  uint32_t e = 0;
  for (uint64_t r = 1; r < index.num_chunks(); r *= 2) ++e;
  EXPECT_EQ(index.entries_per_table(), e);
}

TEST(ExpIndexTest, TableEntriesExponential) {
  const ExpIndex index(RandomKeys(200, 2), 64, ExpConfig{});
  const auto entries = index.TableAt(10);
  uint64_t reach = 1;
  for (const auto& entry : entries) {
    EXPECT_EQ(entry.position, (10 + reach) % index.num_chunks());
    EXPECT_EQ(entry.min_key, index.ChunkMinKey(entry.position));
    reach *= 2;
  }
}

TEST(ExpIndexTest, EntryAtMatchesModuloTableFormula) {
  // EntryAt wraps by compare-subtract; the reference is the old table
  // formula: entry i targets chunk (p + r^i) mod chunks, advertising its
  // min key.
  for (const uint32_t n : {1u, 2u, 3u, 7u, 64u, 65u, 1000u}) {
    std::vector<uint64_t> keys;
    for (uint32_t k = 0; k < n; ++k) keys.push_back(uint64_t{k} * 3 + 1);
    for (const uint32_t r : {2u, 3u}) {
      ExpConfig cfg;
      cfg.index_base = r;
      const ExpIndex index(keys, 64, cfg);
      ASSERT_EQ(index.num_chunks(), n);
      uint32_t entries = 0;
      for (uint64_t reach = 1; reach < n; reach *= r) ++entries;
      ASSERT_EQ(index.entries_per_table(), entries);
      for (uint32_t p = 0; p < n; ++p) {
        const auto table = index.TableAt(p);
        ASSERT_EQ(table.size(), entries);
        uint64_t reach = 1;
        for (uint32_t i = 0; i < entries; ++i, reach *= r) {
          const auto target = static_cast<uint32_t>((p + reach) % n);
          const ExpTableEntry e = index.EntryAt(p, i);
          ASSERT_EQ(e.position, target) << n << " " << r << " " << p;
          ASSERT_EQ(e.min_key, keys[target]) << n << " " << r << " " << p;
          ASSERT_EQ(table[i].position, target);
          ASSERT_EQ(table[i].min_key, keys[target]);
        }
      }
    }
  }
}

TEST(ExpIndexTest, ChunkSizeRespectedModuloTies) {
  ExpConfig cfg;
  cfg.chunk_size = 5;
  const ExpIndex index(RandomKeys(200, 3, 100), 64, cfg);  // many ties
  for (uint32_t c = 0; c < index.num_chunks(); ++c) {
    EXPECT_GE(index.ItemsAt(c).count, 1u);
  }
}

class ExpQueryTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ExpQueryTest, LookupMatchesOracle) {
  ExpConfig cfg;
  cfg.chunk_size = GetParam();
  const auto raw = RandomKeys(250, 4, 5000);  // duplicates likely
  const ExpIndex index(raw, 64, cfg);
  common::Rng rng(5);
  for (int trial = 0; trial < 12; ++trial) {
    const uint64_t key =
        index.sorted_keys()[static_cast<size_t>(rng.UniformInt(0, 249))];
    broadcast::ClientSession s(
        index.program(), static_cast<uint64_t>(rng.UniformInt(0, 1 << 26)),
        broadcast::ErrorModel{}, common::Rng(trial + 1));
    ExpClient client(index, &s);
    const auto ranks = client.Lookup(key);
    EXPECT_TRUE(client.stats().completed);
    size_t expected = 0;
    for (uint64_t k : index.sorted_keys()) {
      if (k == key) ++expected;
    }
    EXPECT_EQ(ranks.size(), expected);
    for (uint32_t r : ranks) EXPECT_EQ(index.sorted_keys()[r], key);
  }
}

TEST_P(ExpQueryTest, RangeQueryMatchesOracle) {
  ExpConfig cfg;
  cfg.chunk_size = GetParam();
  const ExpIndex index(RandomKeys(250, 6), 64, cfg);
  common::Rng rng(7);
  for (int trial = 0; trial < 12; ++trial) {
    const uint64_t a = static_cast<uint64_t>(rng.UniformInt(0, 1 << 20));
    const uint64_t b = static_cast<uint64_t>(rng.UniformInt(0, 1 << 20));
    const uint64_t lo = std::min(a, b);
    const uint64_t hi = std::max(a, b);
    broadcast::ClientSession s(
        index.program(), static_cast<uint64_t>(rng.UniformInt(0, 1 << 26)),
        broadcast::ErrorModel{}, common::Rng(trial + 1));
    ExpClient client(index, &s);
    const auto ranks = client.RangeQuery(lo, hi);
    EXPECT_TRUE(client.stats().completed);
    std::set<uint32_t> got(ranks.begin(), ranks.end());
    std::set<uint32_t> want;
    for (uint32_t r = 0; r < 250; ++r) {
      const uint64_t k = index.sorted_keys()[r];
      if (k >= lo && k <= hi) want.insert(r);
    }
    EXPECT_EQ(got, want) << "range [" << lo << "," << hi << "]";
  }
}

TEST_P(ExpQueryTest, ExactUnderLinkErrors) {
  ExpConfig cfg;
  cfg.chunk_size = GetParam();
  const ExpIndex index(RandomKeys(150, 8), 64, cfg);
  common::Rng rng(9);
  for (const double theta : {0.2, 0.5}) {
    const uint64_t lo = 1 << 17;
    const uint64_t hi = 1 << 19;
    broadcast::ClientSession s(index.program(), 333,
                               broadcast::ErrorModel{theta},
                               common::Rng(11));
    ExpClient client(index, &s);
    const auto ranks = client.RangeQuery(lo, hi);
    EXPECT_TRUE(client.stats().completed);
    std::set<uint32_t> want;
    for (uint32_t r = 0; r < 150; ++r) {
      const uint64_t k = index.sorted_keys()[r];
      if (k >= lo && k <= hi) want.insert(r);
    }
    EXPECT_EQ(std::set<uint32_t>(ranks.begin(), ranks.end()), want);
    (void)rng;
  }
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ExpQueryTest,
                         ::testing::Values(1, 3, 10));

TEST(ExpQueryTest, EmptyRangeBetweenKeys) {
  const ExpIndex index({10, 20, 30, 40, 50}, 64, ExpConfig{});
  broadcast::ClientSession s(index.program(), 2, broadcast::ErrorModel{},
                             common::Rng(1));
  ExpClient client(index, &s);
  EXPECT_TRUE(client.RangeQuery(21, 29).empty());
  EXPECT_TRUE(client.stats().completed);
}

TEST(ExpQueryTest, RangeBeyondMaxAndBelowMin) {
  const ExpIndex index({10, 20, 30, 40, 50}, 64, ExpConfig{});
  {
    broadcast::ClientSession s(index.program(), 2, broadcast::ErrorModel{},
                               common::Rng(1));
    ExpClient client(index, &s);
    EXPECT_TRUE(client.RangeQuery(60, 100).empty());
  }
  {
    broadcast::ClientSession s(index.program(), 2, broadcast::ErrorModel{},
                               common::Rng(1));
    ExpClient client(index, &s);
    EXPECT_TRUE(client.RangeQuery(0, 5).empty());
  }
  {
    broadcast::ClientSession s(index.program(), 2, broadcast::ErrorModel{},
                               common::Rng(1));
    ExpClient client(index, &s);
    EXPECT_EQ(client.RangeQuery(0, 100).size(), 5u);  // everything
  }
}

TEST(ExpQueryTest, ForwardingIsLogarithmic) {
  const ExpIndex index(RandomKeys(4000, 10), 64, ExpConfig{});
  common::Rng rng(11);
  uint64_t max_tables = 0;
  for (int trial = 0; trial < 15; ++trial) {
    const uint64_t key =
        index.sorted_keys()[static_cast<size_t>(rng.UniformInt(0, 3999))];
    broadcast::ClientSession s(
        index.program(), static_cast<uint64_t>(rng.UniformInt(0, 1 << 26)),
        broadcast::ErrorModel{}, common::Rng(trial + 1));
    ExpClient client(index, &s);
    (void)client.Lookup(key);
    max_tables = std::max(max_tables, client.stats().index_reads);
  }
  EXPECT_LE(max_tables, 30u);  // ~log2(4000) = 12 plus slack
}

}  // namespace
}  // namespace dsi::expindex
