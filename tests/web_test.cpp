#include <gtest/gtest.h>

#include "dns/resolver.hpp"
#include "dns/server.hpp"
#include "rpki/validator.hpp"
#include "util/strings.hpp"
#include "web/allocator.hpp"
#include "web/as_registry.hpp"
#include "web/cdn.hpp"
#include "web/ecosystem.hpp"
#include "web/names.hpp"

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace ripki::web {
namespace {

net::Prefix P(const std::string& text) { return net::Prefix::parse(text).value(); }

// --- PrefixAllocator -------------------------------------------------------

TEST(Allocator, HandsOutDisjointAlignedBlocks) {
  PrefixAllocator allocator(P("10.0.0.0/8"));
  std::vector<net::Prefix> allocated;
  for (int len : {16, 24, 20, 24, 18}) {
    auto p = allocator.allocate(len);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.value().length(), len);
    for (const auto& previous : allocated) {
      EXPECT_FALSE(previous.overlaps(p.value()))
          << previous.to_string() << " vs " << p.value().to_string();
    }
    EXPECT_TRUE(P("10.0.0.0/8").contains(p.value()));
    allocated.push_back(p.value());
  }
  EXPECT_GT(allocator.utilisation(), 0.0);
}

TEST(Allocator, RejectsOutOfRangeLengths) {
  PrefixAllocator allocator(P("10.0.0.0/8"));
  EXPECT_FALSE(allocator.allocate(7).ok());   // shorter than the pool
  EXPECT_FALSE(allocator.allocate(25).ok());  // finer than the /24 grain
}

TEST(Allocator, ExhaustsPool) {
  PrefixAllocator allocator(P("10.0.0.0/22"));  // 4 /24 grains
  EXPECT_TRUE(allocator.allocate(23).ok());
  EXPECT_TRUE(allocator.allocate(23).ok());
  EXPECT_FALSE(allocator.allocate(23).ok());
  EXPECT_DOUBLE_EQ(allocator.utilisation(), 1.0);
}

TEST(Allocator, V6UsesSlash48Grain) {
  PrefixAllocator allocator(P("2a00::/12"));
  auto p = allocator.allocate(32);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().length(), 32);
  EXPECT_TRUE(P("2a00::/12").contains(p.value()));
  EXPECT_FALSE(allocator.allocate(49).ok());
}

// --- CDN profiles ------------------------------------------------------------

TEST(CdnProfiles, MatchPaperCensus) {
  const auto& profiles = paper_cdn_profiles();
  EXPECT_EQ(profiles.size(), 16u);
  int total = 0;
  int internap = -1;
  for (const auto& profile : profiles) {
    total += profile.as_count;
    EXPECT_FALSE(profile.cname_suffixes.empty());
    if (profile.name == "Internap") {
      internap = profile.as_count;
      EXPECT_TRUE(profile.issues_roas);
    } else {
      EXPECT_FALSE(profile.issues_roas);
    }
  }
  EXPECT_EQ(total, 199);     // paper: "We discover 199 ASes"
  EXPECT_EQ(internap, 41);   // paper: "Internap operates at least 41 ASes"
  EXPECT_EQ(paper_cdn_profiles()[internap_profile_index()].name, "Internap");
}

// --- AsRegistry ------------------------------------------------------------------

TEST(AsRegistry, KeywordSpottingIsCaseInsensitive) {
  AsRegistry registry;
  registry.add(AsRecord{net::Asn(1), "AKAMAI-AS3 Akamai International",
                        AsCategory::kCdn, 0});
  registry.add(AsRecord{net::Asn(2), "NET-CEDAR Cedar Communications",
                        AsCategory::kIsp, 1});
  EXPECT_EQ(registry.search_holders("akamai").size(), 1u);
  EXPECT_EQ(registry.search_holders("AKAMAI").size(), 1u);
  EXPECT_TRUE(registry.search_holders("internap").empty());
  EXPECT_EQ(registry.count_in(AsCategory::kIsp), 1u);
  ASSERT_NE(registry.find(net::Asn(2)), nullptr);
  EXPECT_EQ(registry.find(net::Asn(2))->category, AsCategory::kIsp);
  EXPECT_EQ(registry.find(net::Asn(3)), nullptr);
}

// --- names ------------------------------------------------------------------------

TEST(Names, DomainsAreDeterministicAndUnique) {
  EXPECT_EQ(domain_name_for_rank(1, 5), domain_name_for_rank(1, 5));
  EXPECT_NE(domain_name_for_rank(1, 5), domain_name_for_rank(2, 5));
  std::set<std::string> names;
  for (std::uint64_t rank = 1; rank <= 2000; ++rank) {
    names.insert(domain_name_for_rank(7, rank));
  }
  EXPECT_EQ(names.size(), 2000u);  // rank digits guarantee uniqueness
}

TEST(Names, HolderNamesAvoidCdnKeywords) {
  for (std::uint64_t i = 0; i < 500; ++i) {
    const std::string holder = holder_name(7, i, "NET", "Communications");
    for (const auto& profile : paper_cdn_profiles()) {
      EXPECT_FALSE(util::icontains(holder, profile.keyword))
          << holder << " contains " << profile.keyword;
    }
  }
}

// --- Ecosystem ---------------------------------------------------------------------

EcosystemConfig small_config() {
  EcosystemConfig config;
  config.domain_count = 3'000;
  config.isp_count = 300;
  config.hoster_count = 80;
  config.enterprise_count = 300;
  config.transit_count = 40;
  return config;
}

class EcosystemTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { eco_ = Ecosystem::generate(small_config()).release(); }
  static void TearDownTestSuite() {
    delete eco_;
    eco_ = nullptr;
  }
  static Ecosystem* eco_;
};

Ecosystem* EcosystemTest::eco_ = nullptr;

TEST_F(EcosystemTest, PopulationMatchesConfig) {
  const auto& registry = eco_->registry();
  EXPECT_EQ(registry.count_in(AsCategory::kIsp), 300u);
  EXPECT_EQ(registry.count_in(AsCategory::kHoster), 80u);
  EXPECT_EQ(registry.count_in(AsCategory::kCdn), 199u);
  EXPECT_EQ(eco_->domain_count(), 3'000u);
  EXPECT_EQ(eco_->trust_anchors().size(), 5u);
  EXPECT_EQ(eco_->repositories().size(), 5u);
}

TEST_F(EcosystemTest, PrefixOwnershipIsConsistent) {
  for (const auto& record : eco_->prefixes()) {
    EXPECT_LT(record.owner_as, eco_->registry().size());
    if (record.more_specific_id >= 0) {
      const auto& child =
          eco_->prefixes()[static_cast<std::size_t>(record.more_specific_id)];
      EXPECT_TRUE(record.prefix.contains(child.prefix));
      EXPECT_TRUE(child.is_more_specific);
    }
  }
}

TEST_F(EcosystemTest, AnnouncedPrefixesAreInTheRib) {
  std::size_t checked = 0;
  for (const auto& record : eco_->prefixes()) {
    if (!record.announced || checked >= 50) continue;
    ++checked;
    const auto origins = eco_->rib().origins_for(record.prefix);
    const net::Asn owner = eco_->registry().at(record.owner_as).asn;
    EXPECT_TRUE(origins.count(owner) == 1)
        << record.prefix.to_string() << " missing owner " << owner.to_string();
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(EcosystemTest, UnannouncedPrefixesAreNotInTheRib) {
  std::size_t unannounced = 0;
  for (const auto& record : eco_->prefixes()) {
    if (record.announced) continue;
    ++unannounced;
    EXPECT_TRUE(eco_->rib().origins_for(record.prefix).empty());
  }
  EXPECT_GT(unannounced, 0u);
}

TEST_F(EcosystemTest, MrtDumpParsesBackToSameTable) {
  const auto dump = eco_->mrt_dump();
  auto parsed = bgp::mrt::read_table_dump(dump);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().prefix_count(), eco_->rib().prefix_count());
  EXPECT_EQ(parsed.value().entry_count(), eco_->rib().entry_count());
  EXPECT_EQ(parsed.value().peers().size(), eco_->rib().peers().size());
}

TEST_F(EcosystemTest, CdnAsesCarryKeywords) {
  const auto& profiles = paper_cdn_profiles();
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const auto spotted = eco_->registry().search_holders(profiles[p].keyword);
    EXPECT_EQ(spotted.size(), static_cast<std::size_t>(profiles[p].as_count))
        << profiles[p].name;
    EXPECT_EQ(eco_->cdn_as_indices(p).size(),
              static_cast<std::size_t>(profiles[p].as_count));
  }
}

TEST_F(EcosystemTest, DomainRanksAreMonotone) {
  std::uint32_t last = 0;
  for (std::size_t i = 0; i < eco_->domain_count(); ++i) {
    EXPECT_GT(eco_->plan(i).rank, last);
    last = eco_->plan(i).rank;
  }
  EXPECT_LE(last, eco_->config().rank_space);
}

TEST_F(EcosystemTest, CdnShareFallsWithRank) {
  std::size_t top_cdn = 0;
  std::size_t tail_cdn = 0;
  const std::size_t half = eco_->domain_count() / 2;
  for (std::size_t i = 0; i < eco_->domain_count(); ++i) {
    if (!eco_->domain_uses_cdn(i)) continue;
    (i < half ? top_cdn : tail_cdn)++;
  }
  EXPECT_GT(top_cdn, tail_cdn * 3 / 2);  // clear popularity skew
}

TEST_F(EcosystemTest, ZoneSourceServesPlannedDomains) {
  const dns::AuthoritativeServer server(&eco_->zone_source(Vantage::kBerlin));
  dns::StubResolver resolver(&server);

  std::size_t resolved = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    const auto& plan = eco_->plan(i);
    if (plan.invalid_dns) continue;
    const auto name = dns::DnsName::parse(eco_->plan_name(i)).value();
    auto result = resolver.resolve(name.prepended("www"), dns::RecordType::kA);
    ASSERT_TRUE(result.ok()) << eco_->plan_name(i) << ": " << result.error().message;
    EXPECT_FALSE(result.value().addresses.empty()) << eco_->plan_name(i);
    EXPECT_EQ(result.value().cname_hops(), plan.www.chain_hops) << eco_->plan_name(i);
    ++resolved;
  }
  EXPECT_GT(resolved, 90u);
}

TEST_F(EcosystemTest, UnknownNamesGetNxDomain) {
  const dns::AuthoritativeServer server(&eco_->zone_source(Vantage::kBerlin));
  dns::StubResolver resolver(&server);
  auto result = resolver.resolve(dns::DnsName::parse("no-such-site.example").value(),
                                 dns::RecordType::kA);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rcode, dns::Rcode::kNxDomain);
}

/// One zone edge case: the first plan `pick` accepts, the name derived
/// from it and the query type, and the answer the plan's fields call for.
struct ZoneEdgeCase {
  const char* what;
  std::function<bool(const DomainPlan&)> pick;
  /// The queried name, from the plan's index and apex name.
  std::function<dns::DnsName(std::size_t, const dns::DnsName&)> name;
  dns::RecordType type;
  dns::Rcode rcode;
  /// The answer's record types, in order.
  std::function<std::vector<dns::RecordType>(const DomainPlan&)> answers;
};

TEST_F(EcosystemTest, ZoneEdgeAnswersFollowThePlan) {
  using dns::RecordType;
  const dns::AuthoritativeServer server(&eco_->zone_source(Vantage::kBerlin));
  const auto www = [](std::size_t, const dns::DnsName& apex) {
    return apex.prepended("www");
  };
  const auto apex_name = [](std::size_t, const dns::DnsName& apex) { return apex; };
  /// The zone that chain node 1 of plan `index`'s www variant lives in:
  /// the suffix of the target its www name's CNAME points at.
  const auto chain_zone = [&](std::size_t index) {
    const auto name = dns::DnsName::parse(eco_->plan_name(index)).value();
    const dns::Message response =
        server.handle(dns::Message::query(1, name.prepended("www"), RecordType::kCname));
    EXPECT_EQ(response.answers.size(), 1u);
    if (response.answers.empty()) return std::string();
    const std::string target = std::get<dns::DnsName>(response.answers[0].rdata).to_string();
    return target.substr(target.find('.'));
  };
  const auto aliased = [](const DomainPlan& plan) {
    return !plan.invalid_dns && plan.www.chain_hops > 0;
  };
  const auto direct_v4_only = [](const DomainPlan& plan) {
    return !plan.invalid_dns && !plan.has_ipv6 && plan.www.chain_hops == 0;
  };
  const auto is_signed = [](const DomainPlan& plan) {
    return !plan.invalid_dns && plan.dnssec_signed;
  };
  const auto any = [](const DomainPlan&) { return true; };
  const auto none = [](const DomainPlan&) { return std::vector<RecordType>{}; };
  const auto cname = [](const DomainPlan&) { return std::vector<RecordType>{RecordType::kCname}; };

  const std::vector<ZoneEdgeCase> cases = {
      {"aliased www, A", aliased, www, RecordType::kA, dns::Rcode::kNoError, cname},
      {"aliased www, AAAA", aliased, www, RecordType::kAaaa, dns::Rcode::kNoError, cname},
      {"aliased www, CNAME", aliased, www, RecordType::kCname, dns::Rcode::kNoError, cname},
      {"direct www without IPv6, AAAA", direct_v4_only, www, RecordType::kAaaa,
       dns::Rcode::kNoError, none},
      {"direct www without IPv6, A", direct_v4_only, www, RecordType::kA,
       dns::Rcode::kNoError,
       [](const DomainPlan& plan) {
         return std::vector<RecordType>(plan.www.server_count, RecordType::kA);
       }},
      {"invalid_dns, AAAA", [](const DomainPlan& plan) { return plan.invalid_dns; }, www,
       RecordType::kAaaa, dns::Rcode::kNoError, none},
      {"signed apex, DNSKEY", is_signed, apex_name, RecordType::kDnskey,
       dns::Rcode::kNoError,
       [](const DomainPlan&) { return std::vector<RecordType>{RecordType::kDnskey}; }},
      {"www of a signed apex, DNSKEY", is_signed, www, RecordType::kDnskey,
       dns::Rcode::kNoError,
       [](const DomainPlan& plan) {
         // No key at www: an aliased www answers with its CNAME instead.
         return plan.www.chain_hops > 0 ? std::vector<RecordType>{RecordType::kCname}
                                        : std::vector<RecordType>{};
       }},
      {"unknown name", any,
       [](std::size_t, const dns::DnsName&) {
         return dns::DnsName::parse("no-such-site.example").value();
       },
       RecordType::kA, dns::Rcode::kNxDomain, none},
      {"www of a www name", any,
       [](std::size_t, const dns::DnsName& apex) {
         return apex.prepended("www").prepended("www");
       },
       RecordType::kA, dns::Rcode::kNxDomain, none},
      {"non-canonical chain label", aliased,
       [&](std::size_t index, const dns::DnsName&) {
         return dns::DnsName::parse("d0" + std::to_string(index) + "-w-1" +
                                    chain_zone(index))
             .value();
       },
       RecordType::kA, dns::Rcode::kNxDomain, none},
      {"chain hop past the plan's last", aliased,
       [&](std::size_t index, const dns::DnsName&) {
         const int past = eco_->plan(index).www.chain_hops + 1;
         return dns::DnsName::parse("d" + std::to_string(index) + "-w-" +
                                    std::to_string(past) + chain_zone(index))
             .value();
       },
       RecordType::kA, dns::Rcode::kNxDomain, none},
  };

  for (const ZoneEdgeCase& edge : cases) {
    std::size_t index = 0;
    while (index < eco_->domain_count() && !edge.pick(eco_->plan(index))) ++index;
    ASSERT_LT(index, eco_->domain_count()) << edge.what << ": no such plan";
    const auto apex = dns::DnsName::parse(eco_->plan_name(index)).value();
    const dns::DnsName name = edge.name(index, apex);
    const dns::Message response = server.handle(dns::Message::query(1, name, edge.type));
    EXPECT_EQ(response.rcode, edge.rcode) << edge.what << " " << name.to_string();
    std::vector<RecordType> types;
    for (const dns::ResourceRecord& rr : response.answers) {
      types.push_back(rr.type);
      EXPECT_EQ(rr.name, name) << edge.what;
    }
    EXPECT_EQ(types, edge.answers(eco_->plan(index))) << edge.what << " " << name.to_string();
  }
}

TEST_F(EcosystemTest, FindPlanMapsEveryNameToItsPlan) {
  for (std::size_t i = 0; i < eco_->domain_count(); ++i) {
    const std::string_view name = eco_->plan_name(i);
    ASSERT_EQ(eco_->find_plan(name), std::optional<std::uint32_t>(i)) << name;
    EXPECT_EQ(eco_->find_plan("www." + std::string(name)), std::nullopt) << name;
  }
  EXPECT_EQ(eco_->find_plan("no-such-site.example"), std::nullopt);
  EXPECT_EQ(eco_->find_plan(""), std::nullopt);
}

TEST_F(EcosystemTest, VantagesReturnSameAddressSets) {
  const dns::AuthoritativeServer berlin(&eco_->zone_source(Vantage::kBerlin));
  const dns::AuthoritativeServer redwood(&eco_->zone_source(Vantage::kRedwoodCity));
  dns::StubResolver r1(&berlin);
  dns::StubResolver r2(&redwood);

  for (std::size_t i = 0; i < 50; ++i) {
    const auto& plan = eco_->plan(i);
    if (plan.invalid_dns) continue;
    const auto name = dns::DnsName::parse(eco_->plan_name(i)).value().prepended("www");
    auto a = r1.resolve(name, dns::RecordType::kA);
    auto b = r2.resolve(name, dns::RecordType::kA);
    ASSERT_TRUE(a.ok() && b.ok());
    std::multiset<std::string> sa;
    std::multiset<std::string> sb;
    for (const auto& addr : a.value().addresses) sa.insert(addr.to_string());
    for (const auto& addr : b.value().addresses) sb.insert(addr.to_string());
    EXPECT_EQ(sa, sb) << eco_->plan_name(i);
  }
}

TEST_F(EcosystemTest, ServerAddressesFallInsideAssignedPrefix) {
  for (std::size_t i = 0; i < 200; ++i) {
    const auto& plan = eco_->plan(i);
    if (plan.invalid_dns || plan.www.server_count == 0) continue;
    for (std::size_t s = 0; s < plan.www.server_count; ++s) {
      const auto addr = eco_->server_address(static_cast<std::uint32_t>(i), true, s);
      const auto& assigned = eco_->prefixes()[plan.www.prefix_ids[s]];
      EXPECT_TRUE(assigned.prefix.contains(addr))
          << eco_->plan_name(i) << " server " << s << " " << addr.to_string() << " not in "
          << assigned.prefix.to_string();
    }
  }
}

TEST_F(EcosystemTest, InternapIsTheOnlyCdnInTheRpki) {
  const rpki::RepositoryValidator validator(eco_->config().now);
  const auto report = validator.validate(eco_->repositories());
  ASSERT_FALSE(report.vrps.empty());

  std::set<std::uint32_t> cdn_asns;
  std::set<std::uint32_t> internap_asns;
  const auto& profiles = paper_cdn_profiles();
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    for (const auto idx : eco_->cdn_as_indices(p)) {
      cdn_asns.insert(eco_->registry().at(idx).asn.value());
      if (p == internap_profile_index()) {
        internap_asns.insert(eco_->registry().at(idx).asn.value());
      }
    }
  }

  std::size_t cdn_vrps = 0;
  std::set<std::uint32_t> cdn_vrp_asns;
  for (const auto& vrp : report.vrps) {
    if (cdn_asns.count(vrp.asn.value()) != 0) {
      ++cdn_vrps;
      cdn_vrp_asns.insert(vrp.asn.value());
      EXPECT_TRUE(internap_asns.count(vrp.asn.value()) == 1);
    }
  }
  EXPECT_EQ(cdn_vrps, 4u);           // paper: "only four entries in the RPKI"
  EXPECT_EQ(cdn_vrp_asns.size(), 3u);  // "tied to three origin ASes"
}

TEST_F(EcosystemTest, ForgedChainNamesDoNotResolve) {
  const dns::AuthoritativeServer server(&eco_->zone_source(Vantage::kBerlin));
  dns::StubResolver resolver(&server);
  // Chain-node names are validated against the plan: wrong hop numbers,
  // wrong variant letters, or wrong suffixes must all be NXDOMAIN.
  for (const char* forged :
       {"d0-w-99.edgesuite.example", "d0-x-1.edgesuite.example",
        "d999999999-w-1.edgesuite.example", "d0-w-1.wrong-suffix.example"}) {
    auto result = resolver.resolve(dns::DnsName::parse(forged).value(),
                                   dns::RecordType::kA);
    ASSERT_TRUE(result.ok()) << forged;
    EXPECT_EQ(result.value().rcode, dns::Rcode::kNxDomain) << forged;
  }
}

TEST_F(EcosystemTest, DnskeyOnlyAtSignedApexes) {
  const dns::AuthoritativeServer server(&eco_->zone_source(Vantage::kBerlin));
  dns::StubResolver resolver(&server);
  // Note: a DNSKEY query for an aliased owner name legitimately yields the
  // CNAME record, so count only DNSKEY-type answers.
  const auto dnskey_count = [](const dns::Message& response) {
    std::size_t n = 0;
    for (const auto& rr : response.answers) {
      if (rr.type == dns::RecordType::kDnskey) ++n;
    }
    return n;
  };

  std::size_t signed_seen = 0;
  for (std::size_t i = 0; i < 400 && signed_seen < 5; ++i) {
    const auto& plan = eco_->plan(i);
    if (plan.invalid_dns) continue;
    const auto apex = dns::DnsName::parse(eco_->plan_name(i)).value();
    auto apex_answer = resolver.query(apex, dns::RecordType::kDnskey);
    ASSERT_TRUE(apex_answer.ok());
    const bool has_key = dnskey_count(*apex_answer.value()) > 0;
    EXPECT_EQ(has_key, plan.dnssec_signed) << eco_->plan_name(i);
    if (has_key) ++signed_seen;
    // www.<apex> never carries the zone key.
    auto www_answer = resolver.query(apex.prepended("www"),
                                     dns::RecordType::kDnskey);
    ASSERT_TRUE(www_answer.ok());
    EXPECT_EQ(dnskey_count(*www_answer.value()), 0u) << eco_->plan_name(i);
  }
}

TEST_F(EcosystemTest, TalsMatchTrustAnchors) {
  const auto tals = eco_->tals();
  ASSERT_EQ(tals.size(), 5u);
  for (std::size_t i = 0; i < tals.size(); ++i) {
    EXPECT_TRUE(rpki::ta_matches_tal(eco_->repositories()[i].ta_cert, tals[i]));
    // Cross-anchor keys must not match.
    EXPECT_FALSE(
        rpki::ta_matches_tal(eco_->repositories()[(i + 1) % 5].ta_cert, tals[i]));
  }
}

TEST_F(EcosystemTest, CdnDomainsHonourThirdPartyScaleDefault) {
  // With the default scale, some CDN-variant servers sit in ISP space.
  std::size_t third_party = 0;
  std::size_t cdn_servers = 0;
  for (std::size_t i = 0; i < eco_->domain_count(); ++i) {
    const auto& plan = eco_->plan(i);
    if (plan.cdn_id == kNoCdn || !plan.www.on_cdn) continue;
    for (std::uint8_t s = 0; s < plan.www.server_count; ++s) {
      const auto& record = eco_->prefixes()[plan.www.prefix_ids[s]];
      const auto category = eco_->registry().at(record.owner_as).category;
      ++cdn_servers;
      if (category == AsCategory::kIsp) ++third_party;
    }
  }
  ASSERT_GT(cdn_servers, 100u);
  // Placement fractions are 2-10%: expect some but a clear minority.
  EXPECT_GT(third_party, 0u);
  EXPECT_LT(third_party, cdn_servers / 4);
}

TEST(Ecosystem, GenerationIsDeterministic) {
  const auto a = Ecosystem::generate(small_config());
  const auto b = Ecosystem::generate(small_config());
  ASSERT_EQ(a->domain_count(), b->domain_count());
  ASSERT_EQ(a->prefixes().size(), b->prefixes().size());
  for (std::size_t i = 0; i < a->domain_count(); i += 37) {
    EXPECT_EQ(a->plan_name(i), b->plan_name(i));
    EXPECT_EQ(a->plan(i).cdn_id, b->plan(i).cdn_id);
    EXPECT_EQ(a->plan(i).www.prefix_ids, b->plan(i).www.prefix_ids);
  }
  for (std::size_t i = 0; i < a->prefixes().size(); i += 101) {
    EXPECT_EQ(a->prefixes()[i].prefix, b->prefixes()[i].prefix);
  }
}

TEST(Ecosystem, FewerRanksThanDomainsStillGiveEachItsOwnName) {
  // A name embeds its rank, so generation raises the rank space to the
  // domain count: every plan gets a rank and a name of its own, and
  // find_plan answers with that plan.
  auto config = small_config();
  config.domain_count = 600;
  config.rank_space = 250;
  const auto eco = Ecosystem::generate(config);
  EXPECT_EQ(eco->config().rank_space, 600u);
  ASSERT_EQ(eco->domain_count(), 600u);
  std::set<std::string_view> names;
  for (std::uint32_t i = 0; i < eco->domain_count(); ++i) {
    names.insert(eco->plan_name(i));
    EXPECT_EQ(eco->find_plan(eco->plan_name(i)), std::optional<std::uint32_t>(i))
        << eco->plan_name(i);
  }
  EXPECT_EQ(names.size(), eco->domain_count());
}

TEST(Ecosystem, SeedChangesWorld) {
  auto config = small_config();
  const auto a = Ecosystem::generate(config);
  config.seed = 777;
  const auto b = Ecosystem::generate(config);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a->domain_count(); i += 13) {
    if (a->plan_name(i) != b->plan_name(i)) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

}  // namespace
}  // namespace ripki::web
