// The compact core data layout behind the million-domain sweep:
//  - util::Arena / util::StringInterner (arena-backed names, 32-bit ids)
//  - core::DomainTable (SoA columns behind AoS-shaped views)
//  - trie::PrefixTrie<V>::Frozen (array-mapped covering walks whose
//    terminal node index keys bgp::CoveringCache)
//  - rpki::SharedValidationCache (warmed once, read concurrently)
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bgp/covering_cache.hpp"
#include "bgp/as_path.hpp"
#include "bgp/rib.hpp"
#include "core/dataset.hpp"
#include "core/pipeline.hpp"
#include "net/prefix.hpp"
#include "rpki/validation_cache.hpp"
#include "trie/prefix_trie.hpp"
#include "util/arena.hpp"
#include "util/interner.hpp"
#include "util/prng.hpp"
#include "web/ecosystem.hpp"

namespace ripki {
namespace {

net::Prefix P(const std::string& text) { return net::Prefix::parse(text).value(); }

// --- arena -------------------------------------------------------------------

TEST(Arena, StoreKeepsViewsStableAcrossBlockGrowth) {
  util::Arena arena(/*block_size=*/64);  // tiny blocks force growth
  std::vector<std::string_view> views;
  std::vector<std::string> originals;
  for (int i = 0; i < 200; ++i) {
    originals.push_back("string-number-" + std::to_string(i));
    views.push_back(arena.store(originals.back()));
  }
  EXPECT_GT(arena.block_count(), 1u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i], originals[i]);
  }
}

TEST(Arena, OversizedAllocationGetsDedicatedBlock) {
  util::Arena arena(/*block_size=*/32);
  const std::string big(1000, 'x');
  const std::string_view view = arena.store(big);
  EXPECT_EQ(view, big);
  EXPECT_GE(arena.bytes_used(), big.size());
}

// --- interner ----------------------------------------------------------------

TEST(StringInterner, DeduplicatesAndAssignsDenseIds) {
  util::StringInterner interner;
  const auto a = interner.intern("alpha.example");
  const auto b = interner.intern("beta.example");
  const auto a2 = interner.intern("alpha.example");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(a2, a);
  EXPECT_EQ(interner.size(), 2u);
  EXPECT_EQ(interner.view(a), "alpha.example");
  EXPECT_EQ(interner.view(b), "beta.example");
}

TEST(StringInterner, FindDoesNotIntern) {
  util::StringInterner interner;
  EXPECT_EQ(interner.find("nothing"), util::StringInterner::kNotFound);
  interner.intern("something");
  EXPECT_EQ(interner.find("something"), 0u);
  EXPECT_EQ(interner.find("nothing"), util::StringInterner::kNotFound);
  EXPECT_EQ(interner.size(), 1u);
}

TEST(StringInterner, IdsAreStableUnderArenaGrowth) {
  util::StringInterner interner;
  std::vector<util::StringInterner::Id> ids;
  for (int i = 0; i < 20'000; ++i) {
    ids.push_back(interner.intern("domain-" + std::to_string(i) + ".example"));
  }
  // Dense first-appearance order; views unchanged after later interns.
  for (int i = 0; i < 20'000; ++i) {
    EXPECT_EQ(ids[static_cast<std::size_t>(i)], static_cast<unsigned>(i));
    EXPECT_EQ(interner.view(ids[static_cast<std::size_t>(i)]),
              "domain-" + std::to_string(i) + ".example");
  }
  EXPECT_GT(interner.memory_bytes(), 0u);
}

/// Expects `interner` to hold exactly `names`, id i naming names[i] at the
/// address recorded in `views`, and to miss every string in `absent`.
void expect_holds(const util::StringInterner& interner,
                  const std::vector<std::string>& names,
                  const std::vector<std::string_view>& views,
                  const std::vector<std::string>& absent) {
  ASSERT_EQ(interner.size(), names.size());
  for (std::size_t id = 0; id < names.size(); ++id) {
    const auto i = static_cast<util::StringInterner::Id>(id);
    ASSERT_EQ(interner.find(names[id]), i) << names[id];
    ASSERT_EQ(interner.view(i), names[id]);
    ASSERT_EQ(interner.view(i).data(), views[id].data()) << names[id];
  }
  for (const std::string& miss : absent) {
    ASSERT_EQ(interner.find(miss), util::StringInterner::kNotFound) << miss;
  }
}

TEST(StringInterner, FindHitsAndMissesAfterEveryInsertAcrossDoublings) {
  // The table starts at 16 slots and doubles before its load passes 1/2,
  // so 600 names cross six doublings (at the 9th, 17th, 33rd, 65th, 129th
  // and 257th name). Every name interned so far must still be found under
  // its dense id and stable view, and every later one missed.
  std::vector<std::string> all;
  for (int i = 0; i < 600; ++i) {
    all.push_back("site-" + std::to_string(i * 7919) + ".example");
  }
  util::StringInterner interner;
  std::vector<std::string> names;
  std::vector<std::string_view> views;
  for (std::size_t n = 0; n < all.size(); ++n) {
    const auto id = interner.intern(all[n]);
    ASSERT_EQ(id, n);
    ASSERT_EQ(interner.intern(all[n]), id);  // a hit interns nothing
    names.push_back(all[n]);
    views.push_back(interner.view(id));
    const std::vector<std::string> absent(
        all.begin() + static_cast<std::ptrdiff_t>(n + 1),
        all.begin() + static_cast<std::ptrdiff_t>(std::min(all.size(), n + 20)));
    expect_holds(interner, names, views, absent);
  }
}

TEST(StringInterner, StringsCollidingInTheLowHashBitsStayDistinct) {
  // Names whose hashes share their low 10 bits, all ones: at every table
  // size up to 1,024 slots they probe from the last slot, so each probe
  // chain wraps around to slot 0. The interner hashes with
  // std::hash<std::string_view>.
  const std::hash<std::string_view> hash;
  std::vector<std::string> colliding;
  for (int i = 0; colliding.size() < 80; ++i) {
    std::string name = "c" + std::to_string(i) + ".example";
    if ((hash(name) & 0x3FF) == 0x3FF) colliding.push_back(std::move(name));
  }
  const std::vector<std::string> absent(colliding.begin() + 60, colliding.end());
  util::StringInterner interner;
  std::vector<std::string> names;
  std::vector<std::string_view> views;
  for (int i = 0; i < 60; ++i) {
    // A colliding name, then an ordinary one that may land inside its chain.
    for (const std::string& name :
         {colliding[static_cast<std::size_t>(i)], "plain-" + std::to_string(i)}) {
      ASSERT_EQ(interner.intern(name), names.size());
      names.push_back(name);
      views.push_back(interner.view(static_cast<util::StringInterner::Id>(
          names.size() - 1)));
    }
    expect_holds(interner, names, views, absent);
  }
}

TEST(StringInterner, EmptyStringIsAnOrdinaryName) {
  util::StringInterner interner;
  EXPECT_EQ(interner.find(""), util::StringInterner::kNotFound);
  EXPECT_EQ(interner.intern("a.example"), 0u);
  EXPECT_EQ(interner.find(""), util::StringInterner::kNotFound);
  EXPECT_EQ(interner.intern(""), 1u);
  EXPECT_EQ(interner.intern(""), 1u);
  EXPECT_EQ(interner.find(""), 1u);
  EXPECT_EQ(interner.view(1), "");
  EXPECT_EQ(interner.find("a.example"), 0u);
  EXPECT_EQ(interner.size(), 2u);
}

TEST(StringInterner, ClearForgetsEveryNameAndReusesFromIdZero) {
  util::StringInterner interner;
  std::vector<std::string> first;
  for (int i = 0; i < 100; ++i) {
    first.push_back("old-" + std::to_string(i) + ".example");
    interner.intern(first.back());
  }
  interner.clear();
  EXPECT_TRUE(interner.empty());
  for (const std::string& name : first) {
    EXPECT_EQ(interner.find(name), util::StringInterner::kNotFound) << name;
  }
  // Reuse in another order: ids restart at 0 in the new order.
  std::vector<std::string> names;
  std::vector<std::string_view> views;
  for (int i = 299; i >= 0; --i) {
    names.push_back(i < 100 ? first[static_cast<std::size_t>(i)]
                            : "new-" + std::to_string(i) + ".example");
    ASSERT_EQ(interner.intern(names.back()), names.size() - 1);
    views.push_back(interner.view(
        static_cast<util::StringInterner::Id>(names.size() - 1)));
  }
  expect_holds(interner, names, views, {"old-100.example", "new-0.example", ""});
}

// --- DomainTable: SoA storage behind AoS views --------------------------------

core::DomainRecord make_record(std::uint64_t rank, const std::string& name) {
  core::DomainRecord record;
  record.rank = rank;
  record.name = name;
  record.dnssec_signed = (rank % 2) == 0;
  record.www.resolved = true;
  record.www.address_count = 3;
  record.www.cname_hops = 2;
  record.www.terminal_cname = "edge-" + std::to_string(rank % 5) + ".cdn.example";
  record.www.pairs.push_back(core::PrefixAsPair{
      P("10.0.0.0/8"), net::Asn(64500), rpki::OriginValidity::kValid});
  record.www.pairs.push_back(core::PrefixAsPair{
      P("10.1.0.0/16"), net::Asn(64501), rpki::OriginValidity::kNotFound});
  record.apex.resolved = rank % 3 != 0;
  if (record.apex.resolved) {
    record.apex.address_count = 1;
    record.apex.pairs.push_back(core::PrefixAsPair{
        P("192.0.2.0/24"), net::Asn(64502), rpki::OriginValidity::kInvalid});
  }
  return record;
}

TEST(DomainTable, ViewsRoundTripAppendedRecords) {
  core::DomainTable table;
  std::vector<core::DomainRecord> originals;
  for (std::uint64_t rank = 1; rank <= 50; ++rank) {
    originals.push_back(make_record(rank, "site" + std::to_string(rank) + ".example"));
    table.append(originals.back());
  }
  ASSERT_EQ(table.size(), originals.size());
  for (std::size_t i = 0; i < originals.size(); ++i) {
    const auto view = table[i];
    // View equality against the AoS record, field accessors, and a full
    // materialized round trip must all agree.
    EXPECT_TRUE(view == originals[i]) << "row " << i;
    EXPECT_EQ(view.name, originals[i].name);
    EXPECT_EQ(view.rank, originals[i].rank);
    EXPECT_EQ(view.www.terminal_cname, originals[i].www.terminal_cname);
    EXPECT_EQ(view.www.coverage(), originals[i].www.coverage());
    EXPECT_EQ(view.primary().to_result(), originals[i].primary());
    EXPECT_EQ(table.record(i), originals[i]);
  }
}

TEST(DomainTable, IterationMatchesIndexing) {
  core::DomainTable table;
  for (std::uint64_t rank = 1; rank <= 10; ++rank) {
    table.append(make_record(rank, "iter" + std::to_string(rank) + ".example"));
  }
  std::size_t i = 0;
  for (const auto view : table) {
    EXPECT_TRUE(view == table.record(i)) << i;
    ++i;
  }
  EXPECT_EQ(i, table.size());
}

TEST(DomainTable, AppendTableReproducesSerialOrder) {
  // The parallel sweep's merge contract: appending per-shard fragments in
  // shard order must equal one table built by appending rows directly.
  core::DomainTable direct;
  core::DomainTable fragment_a;
  core::DomainTable fragment_b;
  for (std::uint64_t rank = 1; rank <= 40; ++rank) {
    const auto record = make_record(rank, "m" + std::to_string(rank) + ".example");
    direct.append(record);
    (rank <= 23 ? fragment_a : fragment_b).append(record);
  }
  core::DomainTable merged;
  merged.append_table(fragment_a);
  merged.append_table(fragment_b);
  EXPECT_TRUE(merged == direct);
  EXPECT_EQ(merged.pair_count(), direct.pair_count());
  EXPECT_GT(merged.memory_bytes(), 0u);
}

TEST(DomainTable, EqualityIsLogicalNotIdBased) {
  // Same rows interned in different orders -> different ids, equal tables.
  const auto r1 = make_record(1, "one.example");
  const auto r2 = make_record(2, "two.example");
  core::DomainTable a;
  a.append(r1);
  a.append(r2);
  core::DomainTable b;
  // Interning "two" first gives it id 0 in b's interner.
  core::DomainTable scratch;
  scratch.append(r2);
  b.append(r1);
  b.append(r2);
  EXPECT_TRUE(a == b);
  core::DomainTable c;
  c.append(r2);
  c.append(r1);
  EXPECT_FALSE(a == c);  // order matters
}

// --- frozen trie -------------------------------------------------------------

TEST(FrozenTrie, DeepestCoveringPathMatchesPointerWalk) {
  trie::PrefixTrie<int> trie;
  util::Prng prng(99);
  std::vector<net::Prefix> prefixes;
  for (int i = 0; i < 400; ++i) {
    const auto base = static_cast<std::uint32_t>(prng.next_u64());
    const int length = 8 + static_cast<int>(prng.next_u64() % 17);
    const auto prefix = net::Prefix(net::IpAddress::v4(base), length);
    trie.insert(prefix, i);
    prefixes.push_back(prefix);
  }
  const auto frozen = trie.freeze();
  EXPECT_GT(frozen.node_count(), 0u);
  EXPECT_LE(frozen.node_count(), 2 * trie.size() + 2);

  // Probe with addresses inside stored prefixes and fully random ones.
  for (int i = 0; i < 2'000; ++i) {
    net::IpAddress addr = net::IpAddress::v4(static_cast<std::uint32_t>(prng.next_u64()));
    if (i % 2 == 0) {
      addr = prefixes[static_cast<std::size_t>(i) % prefixes.size()].address();
    }
    const auto expected = trie.covering(addr);
    const auto node = frozen.deepest_covering(addr);
    const auto actual = frozen.path_matches(node);
    ASSERT_EQ(actual.size(), expected.size()) << addr.to_string();
    for (std::size_t m = 0; m < expected.size(); ++m) {
      EXPECT_EQ(actual[m].prefix, expected[m].prefix);
      EXPECT_EQ(*actual[m].value, *expected[m].value);
    }
  }
}

TEST(FrozenTrie, SameDeepestNodeMeansSameCoveringSet) {
  trie::PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 1);
  trie.insert(P("10.1.0.0/16"), 2);
  const auto frozen = trie.freeze();
  // Two different addresses under the same deepest prefix share the node —
  // the invariant CoveringCache keys on.
  const auto a = frozen.deepest_covering(net::IpAddress::parse("10.1.2.3").value());
  const auto b = frozen.deepest_covering(net::IpAddress::parse("10.1.200.9").value());
  EXPECT_NE(a, frozen.kNoNode);
  EXPECT_EQ(a, b);
  const auto c = frozen.deepest_covering(net::IpAddress::parse("10.2.0.1").value());
  EXPECT_NE(a, c);  // /8 only
  EXPECT_EQ(frozen.deepest_covering(net::IpAddress::parse("192.0.2.1").value()),
            frozen.kNoNode);
}

// --- shared validation cache -------------------------------------------------

class SharedValidationCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rpki::VrpSet vrps;
    for (std::uint32_t i = 0; i < 64; ++i) {
      vrps.push_back(rpki::Vrp{
          P(std::to_string(10 + i % 40) + "." + std::to_string(i) + ".0.0/16"),
          static_cast<std::uint8_t>(16 + i % 9), net::Asn(64500 + i % 7)});
    }
    index_ = rpki::VrpIndex(vrps);
    for (std::uint32_t i = 0; i < 128; ++i) {
      keys_.emplace_back(
          P(std::to_string(10 + i % 50) + "." + std::to_string(i % 60) +
            ".0.0/" + std::to_string(16 + i % 10)),
          net::Asn(64500 + i % 9));
    }
    for (const auto& [prefix, origin] : keys_) {
      shared_.warm(index_, prefix, origin);
    }
  }

  void check_with_threads(std::size_t n_threads) {
    std::atomic<std::uint64_t> mismatches{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < n_threads; ++t) {
      threads.emplace_back([&] {
        rpki::ValidationCache worker(&index_, &shared_);
        for (int round = 0; round < 200; ++round) {
          for (const auto& [prefix, origin] : keys_) {
            if (worker.validate(prefix, origin) !=
                index_.validate(prefix, origin)) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        // Every key was warmed, so the private tier stays empty and all
        // traffic counts as hits.
        if (worker.size() != 0) mismatches.fetch_add(1);
        if (worker.misses() != 0) mismatches.fetch_add(1);
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0u);
  }

  rpki::VrpIndex index_;
  rpki::SharedValidationCache shared_;
  std::vector<std::pair<net::Prefix, net::Asn>> keys_;
};

TEST_F(SharedValidationCacheTest, WarmedLookupsMatchIndexOneThread) {
  check_with_threads(1);
}

TEST_F(SharedValidationCacheTest, WarmedLookupsMatchIndexFourThreads) {
  check_with_threads(4);
}

TEST_F(SharedValidationCacheTest, WarmedLookupsMatchIndexSixteenThreads) {
  check_with_threads(16);
}

TEST_F(SharedValidationCacheTest, UnwarmedKeysOverflowToPrivateTier) {
  rpki::ValidationCache worker(&index_, &shared_);
  const auto prefix = P("203.0.113.0/24");
  const auto origin = net::Asn(65001);
  EXPECT_EQ(shared_.lookup(prefix, origin), nullptr);
  const auto first = worker.validate(prefix, origin);
  EXPECT_EQ(first, index_.validate(prefix, origin));
  EXPECT_EQ(worker.misses(), 1u);
  EXPECT_EQ(worker.size(), 1u);
  EXPECT_EQ(worker.validate(prefix, origin), first);
  EXPECT_EQ(worker.hits(), 1u);
}

// --- covering cache over the frozen RIB --------------------------------------

TEST(CoveringCacheFrozen, NodeKeyedSlotsHitForAddressesInTheSamePrefix) {
  bgp::Rib rib;
  rib.add(bgp::RibEntry{P("10.0.0.0/8"), bgp::AsPath::sequence({1, 64500}), 0, 0});
  rib.add(bgp::RibEntry{P("10.1.0.0/16"), bgp::AsPath::sequence({1, 64501}), 0, 0});
  rib.freeze();
  ASSERT_TRUE(rib.frozen());

  bgp::CoveringCache cache(&rib);
  const auto first =
      cache.covering(net::IpAddress::parse("10.1.2.3").value());
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  // A different address in the same deepest prefix shares the slot.
  cache.covering(net::IpAddress::parse("10.1.99.7").value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  // Nothing-covers also caches (the dedicated kNoNode slot).
  cache.covering(net::IpAddress::parse("192.0.2.1").value());
  cache.covering(net::IpAddress::parse("198.51.100.1").value());
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
}

// --- downscaled million-domain identity rung ---------------------------------

TEST(MillionRungDownscaled, ParallelSweepIsByteIdenticalToSerial) {
  // CI-scaled stand-in for the 1M rung: the same contract — parallel
  // sweep output identical to serial, rank space stretched to 1M — at a
  // domain count the suite can afford.
  web::EcosystemConfig config;
  config.domain_count = 4'000;
  config.rank_space = 1'000'000;
  config.isp_count = 300;
  config.hoster_count = 80;
  config.enterprise_count = 300;
  config.transit_count = 40;
  const auto eco = web::Ecosystem::generate(config);

  core::MeasurementPipeline serial(*eco, core::PipelineConfig{});
  const core::Dataset baseline = serial.run();
  ASSERT_EQ(baseline.domains.size(), 4'000u);

  for (const std::size_t threads : {1u, 4u}) {
    core::PipelineConfig parallel_config;
    parallel_config.threads = threads;
    core::MeasurementPipeline parallel(*eco, parallel_config);
    const core::Dataset dataset = parallel.run();
    EXPECT_TRUE(dataset == baseline) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace ripki
