// Cross-module edge cases and determinism properties that don't belong to
// a single module's suite.
#include <gtest/gtest.h>

#include "bgp/update.hpp"
#include "core/pipeline.hpp"
#include "crypto/uint256.hpp"
#include "rpki/rrdp.hpp"
#include "rpki/validator.hpp"
#include "util/prng.hpp"

namespace ripki {
namespace {

net::Prefix P(const std::string& text) { return net::Prefix::parse(text).value(); }

// --- pipeline determinism -------------------------------------------------------

TEST(Determinism, PipelineRunsAreBitIdentical) {
  web::EcosystemConfig config;
  config.domain_count = 2'000;
  config.isp_count = 200;
  config.hoster_count = 60;
  config.enterprise_count = 200;
  config.transit_count = 30;
  const auto eco = web::Ecosystem::generate(config);

  core::MeasurementPipeline p1(*eco, core::PipelineConfig{});
  core::MeasurementPipeline p2(*eco, core::PipelineConfig{});
  const auto d1 = p1.run();
  const auto d2 = p2.run();

  ASSERT_EQ(d1.domains.size(), d2.domains.size());
  for (std::size_t i = 0; i < d1.domains.size(); ++i) {
    EXPECT_EQ(d1.domains[i], d2.domains[i]);
  }
  EXPECT_EQ(d1.counters.dns_queries, d2.counters.dns_queries);
}

// --- RRDP convergence property -----------------------------------------------------

TEST(RrdpProperty, ClientConvergesUnderChurn) {
  util::Prng prng(314);
  auto anchor = rpki::make_trust_anchor(
      "ARIN", rpki::ResourceSet({P("23.0.0.0/8")}),
      rpki::ValidityWindow{rpki::kDefaultNow - 10 * rpki::kSecondsPerDay,
                           rpki::kDefaultNow + 100 * rpki::kSecondsPerDay},
      prng);

  const auto build = [&](int roas) {
    rpki::RepositoryBuilder builder(anchor, rpki::kDefaultNow, prng);
    const auto ca = builder.add_ca("Org", rpki::ResourceSet({P("23.1.0.0/16")}));
    for (int i = 0; i < roas; ++i) {
      rpki::RoaContent content;
      content.asn = net::Asn(64500u + static_cast<std::uint32_t>(i));
      content.prefixes = {
          rpki::RoaPrefix{P("23.1.0.0/16"), static_cast<std::uint8_t>(17 + i % 8)}};
      builder.add_roa(ca, content);
    }
    return builder.build();
  };

  rpki::RrdpServer server("churn", build(1), /*delta_window=*/3);
  rpki::RrdpClient client;
  const rpki::RepositoryValidator validator(rpki::kDefaultNow);

  for (int round = 0; round < 12; ++round) {
    const int roas = 1 + static_cast<int>(prng.uniform(6));
    const auto repo = build(roas);
    server.update(repo);
    // Sometimes skip a sync so the client falls behind by several serials.
    if (prng.bernoulli(0.4)) continue;
    ASSERT_TRUE(client.sync(server).ok()) << "round " << round;

    // Property: the mirrored repository validates to exactly the same VRP
    // set as the server's current repository.
    auto assembled = client.assemble();
    ASSERT_TRUE(assembled.ok());
    rpki::ValidationReport direct;
    validator.validate_into(repo, direct);
    rpki::ValidationReport mirrored;
    validator.validate_into(assembled.value(), mirrored);
    EXPECT_EQ(mirrored.vrps, direct.vrps) << "round " << round;
  }
}

// --- BGP UPDATE extended-length attributes --------------------------------------------

TEST(UpdateCodec, ExtendedLengthAsPathRoundTrips) {
  bgp::UpdateMessage update;
  // 80 ASNs -> AS_PATH attribute value of 2 + 320 bytes > 255: forces the
  // extended-length attribute encoding.
  std::vector<net::Asn> asns;
  for (std::uint32_t i = 0; i < 80; ++i) asns.emplace_back(64000 + i);
  update.as_path = bgp::AsPath::sequence(asns);
  update.next_hop = net::IpAddress::v4(192, 0, 2, 1);
  update.nlri = {P("10.0.0.0/8")};

  auto encoded = bgp::encode_update(update);
  ASSERT_TRUE(encoded.ok());
  util::ByteReader reader(encoded.value());
  auto decoded = bgp::decode_update(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded.value().as_path, update.as_path);
}

TEST(UpdateCodec, RejectsOversizedMessage) {
  bgp::UpdateMessage update;
  update.as_path = bgp::AsPath::sequence({1, 2});
  update.next_hop = net::IpAddress::v4(192, 0, 2, 1);
  for (std::uint32_t i = 0; i < 1'500; ++i) {
    update.nlri.push_back(
        net::Prefix(net::IpAddress::v4(0x0A000000u + (i << 8)), 24));
  }
  EXPECT_FALSE(bgp::encode_update(update).ok());  // > 4096 bytes
}

// --- crypto edge cases ------------------------------------------------------------------

TEST(U256Edge, ModexpDegenerateInputs) {
  using crypto::U256;
  EXPECT_EQ(U256::modexp(U256(0), U256(5), U256(7)), U256(0));
  EXPECT_EQ(U256::modexp(U256(5), U256(0), U256(7)), U256(1));
  EXPECT_EQ(U256::modexp(U256(5), U256(5), U256(1)), U256(0));  // mod 1
  EXPECT_EQ(U256::modexp(U256(0), U256(0), U256(7)), U256(1));  // 0^0 := 1
}

TEST(U256Edge, WrappingSubAddInverse) {
  using crypto::U256;
  util::Prng prng(271);
  for (int i = 0; i < 200; ++i) {
    // Widths in [2, 256], the range random_bits accepts.
    const U256 a = U256::random_bits(prng, 2 + static_cast<int>(prng.uniform(255)));
    const U256 b = U256::random_bits(prng, 2 + static_cast<int>(prng.uniform(255)));
    EXPECT_EQ(a.sub(b).add(b), a);  // holds even when a < b (mod 2^256)
  }
}

TEST(U256Edge, DivisionByLargerYieldsZero) {
  using crypto::U256;
  U256 rem;
  EXPECT_EQ(U256::divmod(U256(5), U256(100), &rem), U256(0));
  EXPECT_EQ(rem, U256(5));
}

// --- prefix ordering is a strict total order ----------------------------------------------

TEST(PrefixOrder, StrictWeakOrdering) {
  util::Prng prng(99);
  std::vector<net::Prefix> prefixes;
  for (int i = 0; i < 200; ++i) {
    prefixes.emplace_back(
        net::IpAddress::v4(static_cast<std::uint32_t>(prng.next_u64())),
        static_cast<int>(prng.uniform(33)));
  }
  std::sort(prefixes.begin(), prefixes.end());
  for (std::size_t i = 1; i < prefixes.size(); ++i) {
    EXPECT_LE(prefixes[i - 1], prefixes[i]);
    EXPECT_FALSE(prefixes[i] < prefixes[i - 1]);
  }
}

// --- web: IPv6 answers flow through the pipeline -------------------------------------------

TEST(Ipv6Pipeline, AaaaPairsAppear) {
  web::EcosystemConfig config;
  config.domain_count = 3'000;
  config.isp_count = 200;
  config.hoster_count = 60;
  config.enterprise_count = 200;
  config.transit_count = 30;
  config.ipv6_fraction = 1.0;  // every domain tries AAAA
  const auto eco = web::Ecosystem::generate(config);
  core::MeasurementPipeline pipeline(*eco, core::PipelineConfig{});
  const auto dataset = pipeline.run();

  std::size_t v6_pairs = 0;
  for (const auto record : dataset.rows()) {
    for (const auto& pair : record.www.pairs) {
      if (!pair.prefix.is_v4()) ++v6_pairs;
    }
  }
  // ~30% of ASes hold v6 space, so a solid share of domains must expose
  // v6 prefix-AS pairs.
  EXPECT_GT(v6_pairs, dataset.domains.size() / 10);
}

}  // namespace
}  // namespace ripki
