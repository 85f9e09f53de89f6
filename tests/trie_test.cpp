#include <gtest/gtest.h>

#include "trie/prefix_trie.hpp"
#include "util/prng.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ripki::trie {
namespace {

net::Prefix P(const std::string& text) {
  auto p = net::Prefix::parse(text);
  EXPECT_TRUE(p.ok()) << text;
  return p.value();
}

net::IpAddress A(const std::string& text) {
  auto a = net::IpAddress::parse(text);
  EXPECT_TRUE(a.ok()) << text;
  return a.value();
}

TEST(PrefixTrie, InsertAndFindExact) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 1);
  trie.insert(P("10.0.0.0/16"), 2);
  trie.insert(P("192.168.0.0/16"), 3);

  EXPECT_EQ(trie.size(), 3u);
  ASSERT_NE(trie.find_exact(P("10.0.0.0/8")), nullptr);
  EXPECT_EQ(*trie.find_exact(P("10.0.0.0/8")), 1);
  EXPECT_EQ(*trie.find_exact(P("10.0.0.0/16")), 2);
  EXPECT_EQ(*trie.find_exact(P("192.168.0.0/16")), 3);
  EXPECT_EQ(trie.find_exact(P("10.0.0.0/12")), nullptr);
  EXPECT_EQ(trie.find_exact(P("11.0.0.0/8")), nullptr);
}

TEST(PrefixTrie, InsertReplacesValue) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 1);
  trie.insert(P("10.0.0.0/8"), 9);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(*trie.find_exact(P("10.0.0.0/8")), 9);
}

TEST(PrefixTrie, CoveringReturnsShortestFirst) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 8);
  trie.insert(P("10.1.0.0/16"), 16);
  trie.insert(P("10.1.2.0/24"), 24);
  trie.insert(P("10.2.0.0/16"), 99);  // not covering 10.1.2.3

  const auto matches = trie.covering(A("10.1.2.3"));
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(*matches[0].value, 8);
  EXPECT_EQ(*matches[1].value, 16);
  EXPECT_EQ(*matches[2].value, 24);
  EXPECT_EQ(matches[0].prefix, P("10.0.0.0/8"));
}

TEST(PrefixTrie, CoveringOfPrefixStopsAtTargetLength) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 8);
  trie.insert(P("10.1.0.0/16"), 16);
  trie.insert(P("10.1.2.0/24"), 24);

  const auto matches = trie.covering(P("10.1.0.0/16"));
  ASSERT_EQ(matches.size(), 2u);  // the /24 is more specific than the target
  EXPECT_EQ(*matches[0].value, 8);
  EXPECT_EQ(*matches[1].value, 16);
}

TEST(PrefixTrie, LongestMatch) {
  PrefixTrie<int> trie;
  trie.insert(P("0.0.0.0/0"), 0);
  trie.insert(P("10.0.0.0/8"), 8);
  trie.insert(P("10.128.0.0/9"), 9);

  const auto best = trie.longest_match(A("10.200.0.1"));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best->value, 9);

  const auto fallback = trie.longest_match(A("99.0.0.1"));
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(*fallback->value, 0);
}

TEST(PrefixTrie, NoMatchReturnsEmpty) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 1);
  EXPECT_TRUE(trie.covering(A("11.0.0.1")).empty());
  EXPECT_FALSE(trie.longest_match(A("11.0.0.1")).has_value());
}

TEST(PrefixTrie, FamiliesAreSeparate) {
  PrefixTrie<int> trie;
  trie.insert(P("0.0.0.0/0"), 4);
  trie.insert(P("::/0"), 6);
  EXPECT_EQ(*trie.covering(A("8.8.8.8")).front().value, 4);
  EXPECT_EQ(*trie.covering(A("2a00::1")).front().value, 6);
  EXPECT_EQ(trie.size(), 2u);
}

TEST(PrefixTrie, V6CoveringChain) {
  PrefixTrie<int> trie;
  trie.insert(P("2a00::/12"), 12);
  trie.insert(P("2a00:1450::/32"), 32);
  trie.insert(P("2a00:1450:4001::/48"), 48);
  const auto matches = trie.covering(A("2a00:1450:4001:82f::200e"));
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(*matches.back().value, 48);
}

TEST(PrefixTrie, SplitNodesDoNotLeakValues) {
  PrefixTrie<int> trie;
  // Inserting two diverging prefixes creates an internal split node that
  // must not appear as a match.
  trie.insert(P("10.0.0.0/16"), 1);
  trie.insert(P("10.1.0.0/16"), 2);
  const auto matches = trie.covering(A("10.0.0.1"));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(*matches[0].value, 1);
}

TEST(PrefixTrie, InsertOnExistingSplitNode) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/16"), 1);
  trie.insert(P("10.1.0.0/16"), 2);
  trie.insert(P("10.0.0.0/15"), 3);  // lands exactly on the split node
  EXPECT_EQ(trie.size(), 3u);
  ASSERT_NE(trie.find_exact(P("10.0.0.0/15")), nullptr);
  EXPECT_EQ(*trie.find_exact(P("10.0.0.0/15")), 3);
  EXPECT_EQ(trie.covering(A("10.1.2.3")).size(), 2u);  // /15 and /16
}

TEST(PrefixTrie, VisitEnumeratesAll) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 1);
  trie.insert(P("10.1.0.0/16"), 2);
  trie.insert(P("2a00::/12"), 3);
  int count = 0;
  int sum = 0;
  trie.visit([&](const net::Prefix&, const int& v) {
    ++count;
    sum += v;
  });
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sum, 6);
}

TEST(PrefixTrie, Clear) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 1);
  trie.clear();
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.find_exact(P("10.0.0.0/8")), nullptr);
}

TEST(PrefixTrie, DefaultRouteMatchesEverything) {
  PrefixTrie<int> trie;
  trie.insert(P("0.0.0.0/0"), 7);
  EXPECT_EQ(trie.covering(A("1.2.3.4")).size(), 1u);
  EXPECT_EQ(trie.covering(A("255.255.255.255")).size(), 1u);
}

// Property test: the trie must agree with a brute-force scan over random
// prefix sets, for both covering() and longest_match().
class PrefixTrieProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefixTrieProperty, AgreesWithBruteForce) {
  util::Prng prng(GetParam());
  PrefixTrie<std::size_t> trie;
  std::vector<net::Prefix> stored;

  for (int i = 0; i < 300; ++i) {
    const int length = 4 + static_cast<int>(prng.uniform(25));  // 4..28
    const auto addr = net::IpAddress::v4(static_cast<std::uint32_t>(prng.next_u64()));
    const net::Prefix prefix(addr, length);
    if (trie.find_exact(prefix) == nullptr) {
      stored.push_back(prefix);
      trie.insert(prefix, stored.size() - 1);
    }
  }

  for (int i = 0; i < 500; ++i) {
    const auto addr = net::IpAddress::v4(static_cast<std::uint32_t>(prng.next_u64()));

    std::vector<net::Prefix> expected;
    for (const auto& prefix : stored) {
      if (prefix.contains(addr)) expected.push_back(prefix);
    }
    std::sort(expected.begin(), expected.end(),
              [](const net::Prefix& a, const net::Prefix& b) {
                return a.length() < b.length();
              });

    const auto matches = trie.covering(addr);
    ASSERT_EQ(matches.size(), expected.size());
    for (std::size_t m = 0; m < matches.size(); ++m) {
      EXPECT_EQ(matches[m].prefix, expected[m]);
    }

    const auto best = trie.longest_match(addr);
    if (expected.empty()) {
      EXPECT_FALSE(best.has_value());
    } else {
      ASSERT_TRUE(best.has_value());
      EXPECT_EQ(best->prefix, expected.back());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, PrefixTrieProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Frozen::within ---------------------------------------------------------

/// `inner` equal to or more specific than `outer`, bit by bit.
bool reference_inside(const net::Prefix& inner, const net::Prefix& outer) {
  if (inner.family() != outer.family() || inner.length() < outer.length())
    return false;
  for (int i = 0; i < outer.length(); ++i) {
    if (inner.address().bit(i) != outer.address().bit(i)) return false;
  }
  return true;
}

/// A random address whose first byte comes from a small set, so that the
/// prefixes drawn from such addresses nest.
net::IpAddress clustered_address(util::Prng& prng, bool v6) {
  std::array<std::uint8_t, 16> bytes{};
  for (auto& byte : bytes) byte = static_cast<std::uint8_t>(prng.next_u64());
  bytes[0] = static_cast<std::uint8_t>(v6 ? 0x20 + prng.uniform(2)
                                          : 10 + prng.uniform(3));
  if (v6) return net::IpAddress::v6(bytes);
  return net::IpAddress::v4(bytes[0], bytes[1], bytes[2], bytes[3]);
}

// Property test: the valued nodes in within(target) are exactly the stored
// prefixes inside the target, over random v4+v6 tries with some prefixes
// erased (their nodes stay as split nodes), and an address's deepest node
// is in the range only when the address lies inside the target — and
// always, when the target is itself a node.
class FrozenWithinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrozenWithinProperty, RangeHoldsExactlyTheStoredPrefixesInside) {
  util::Prng prng(GetParam());
  PrefixTrie<int> trie;
  std::set<net::Prefix> stored;
  for (int i = 0; i < 400; ++i) {
    const bool v6 = i % 3 == 0;
    const int length = v6 ? 8 + static_cast<int>(prng.uniform(57))   // 8..64
                          : 4 + static_cast<int>(prng.uniform(25));  // 4..28
    const net::Prefix prefix(clustered_address(prng, v6), length);
    trie.insert(prefix, i);
    stored.insert(prefix);
  }
  std::vector<net::Prefix> erased;
  for (auto it = stored.begin(); it != stored.end();) {
    if (prng.uniform(4) != 0) {
      ++it;
      continue;
    }
    ASSERT_TRUE(trie.erase(*it).has_value());
    erased.push_back(*it);
    it = stored.erase(it);
  }
  const auto frozen = trie.freeze();

  // Each stored prefix's own walk ends at its node, so this maps every
  // valued node to its key.
  std::map<std::uint32_t, net::Prefix> valued;
  for (const net::Prefix& prefix : stored)
    valued.emplace(frozen.deepest_covering(prefix), prefix);
  ASSERT_EQ(valued.size(), stored.size());

  struct Target {
    net::Prefix prefix;
    bool is_node;
  };
  std::vector<Target> targets;
  for (const net::Prefix& prefix : stored) targets.push_back({prefix, true});
  for (const net::Prefix& prefix : erased) targets.push_back({prefix, true});
  for (int i = 0; i < 200; ++i) {
    const bool v6 = i % 2 == 0;
    const int length = static_cast<int>(prng.uniform(v6 ? 129 : 33));
    targets.push_back({net::Prefix(clustered_address(prng, v6), length), false});
  }
  targets.push_back({P("0.0.0.0/0"), false});
  targets.push_back({P("::/0"), false});
  // Longer than any key.
  targets.push_back({net::Prefix(clustered_address(prng, false), 32), false});
  targets.push_back({net::Prefix(clustered_address(prng, true), 128), false});

  for (const Target& target : targets) {
    SCOPED_TRACE(target.prefix.to_string());
    const auto range = frozen.within(target.prefix);
    ASSERT_LE(range.first, range.last);
    ASSERT_LE(range.last, frozen.node_count());

    std::set<net::Prefix> got;
    for (auto it = valued.lower_bound(range.first);
         it != valued.end() && it->first < range.last; ++it)
      got.insert(it->second);
    std::set<net::Prefix> want;
    for (const net::Prefix& prefix : stored) {
      if (reference_inside(prefix, target.prefix)) want.insert(prefix);
    }
    EXPECT_EQ(got, want);
    if (target.prefix.length() == target.prefix.address().width()) {
      EXPECT_EQ(range.first, range.last);
    }

    for (int i = 0; i < 8; ++i) {
      // Half the addresses inside the target, half anywhere in its family.
      net::IpAddress addr = clustered_address(prng, !target.prefix.is_v4());
      if (i % 2 == 0) {
        std::array<std::uint8_t, 16> bytes = addr.bytes();
        const auto& base = target.prefix.address().bytes();
        for (int bit = 0; bit < target.prefix.length(); ++bit) {
          const auto mask = static_cast<std::uint8_t>(0x80u >> (bit % 8));
          const auto at = static_cast<std::size_t>(bit / 8);
          bytes[at] = static_cast<std::uint8_t>((bytes[at] & ~mask) |
                                                (base[at] & mask));
        }
        addr = target.prefix.is_v4()
                   ? net::IpAddress::v4(bytes[0], bytes[1], bytes[2], bytes[3])
                   : net::IpAddress::v6(bytes);
      }
      const std::uint32_t node = frozen.deepest_covering(addr);
      const bool in_range = node >= range.first && node < range.last;
      const bool inside = reference_inside(
          net::Prefix(addr, addr.width()), target.prefix);
      EXPECT_TRUE(inside || !in_range) << addr.to_string();
      EXPECT_TRUE(in_range || !(target.is_node && inside)) << addr.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, FrozenWithinProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// --- erase (withdraw support for the incremental RIB) ------------------------

TEST(PrefixTrie, EraseReturnsValueAndShrinks) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 8);
  trie.insert(P("10.1.0.0/16"), 16);

  const auto out = trie.erase(P("10.1.0.0/16"));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, 16);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.find_exact(P("10.1.0.0/16")), nullptr);
  ASSERT_NE(trie.find_exact(P("10.0.0.0/8")), nullptr);
}

TEST(PrefixTrie, EraseAbsentPrefixIsNullopt) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 8);
  EXPECT_FALSE(trie.erase(P("10.2.0.0/16")).has_value());
  EXPECT_FALSE(trie.erase(P("11.0.0.0/8")).has_value());
  EXPECT_EQ(trie.size(), 1u);
  // Erasing twice: the second call finds a valueless node.
  EXPECT_TRUE(trie.erase(P("10.0.0.0/8")).has_value());
  EXPECT_FALSE(trie.erase(P("10.0.0.0/8")).has_value());
  EXPECT_TRUE(trie.empty());
}

TEST(PrefixTrie, ErasedNodeIsSkippedByTraversals) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 8);
  trie.insert(P("10.1.0.0/16"), 16);
  trie.insert(P("10.1.2.0/24"), 24);

  trie.erase(P("10.1.0.0/16"));

  const auto matches = trie.covering(A("10.1.2.3"));
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].prefix, P("10.0.0.0/8"));
  EXPECT_EQ(matches[1].prefix, P("10.1.2.0/24"));

  const auto best = trie.longest_match(A("10.1.200.1"));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->prefix, P("10.0.0.0/8"));

  std::size_t visited = 0;
  trie.visit([&](const net::Prefix&, const int&) { ++visited; });
  EXPECT_EQ(visited, 2u);
}

TEST(PrefixTrie, ReinsertAfterEraseRevivesNode) {
  PrefixTrie<int> trie;
  trie.insert(P("10.1.0.0/16"), 1);
  trie.insert(P("10.2.0.0/16"), 2);  // forces a /15-ish split parent
  trie.erase(P("10.1.0.0/16"));
  EXPECT_EQ(trie.size(), 1u);

  trie.insert(P("10.1.0.0/16"), 7);
  EXPECT_EQ(trie.size(), 2u);
  ASSERT_NE(trie.find_exact(P("10.1.0.0/16")), nullptr);
  EXPECT_EQ(*trie.find_exact(P("10.1.0.0/16")), 7);
  const auto best = trie.longest_match(A("10.1.0.9"));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->prefix, P("10.1.0.0/16"));
}

}  // namespace
}  // namespace ripki::trie
