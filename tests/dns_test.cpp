#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "dns/message.hpp"
#include "dns/name.hpp"
#include "dns/resolver.hpp"
#include "dns/server.hpp"
#include "dns/zone.hpp"

namespace ripki::dns {
namespace {

DnsName N(const std::string& text) {
  auto name = DnsName::parse(text);
  EXPECT_TRUE(name.ok()) << text;
  return name.value();
}

net::IpAddress A4(const std::string& text) {
  return net::IpAddress::parse(text).value();
}

// --- DnsName -----------------------------------------------------------------

TEST(DnsName, ParseLowercasesAndSplits) {
  const DnsName name = N("WWW.Example.COM");
  ASSERT_EQ(name.label_count(), 3u);
  EXPECT_EQ(name.first_label(), "www");
  EXPECT_EQ(name.to_string(), "www.example.com");
}

TEST(DnsName, TrailingDotAccepted) {
  EXPECT_EQ(N("example.com."), N("example.com"));
}

TEST(DnsName, RootName) {
  EXPECT_TRUE(N("").is_root());
  EXPECT_TRUE(N(".").is_root());
  EXPECT_EQ(N("").to_string(), "");
}

TEST(DnsName, RejectsBadLabels) {
  EXPECT_FALSE(DnsName::parse("a..b").ok());
  EXPECT_FALSE(DnsName::parse(std::string(64, 'a') + ".com").ok());
  // > 255 octets total.
  std::string longname;
  for (int i = 0; i < 50; ++i) longname += "abcdef.";
  longname += "com";
  EXPECT_FALSE(DnsName::parse(longname).ok());
}

TEST(DnsName, PrependAndSuffix) {
  const DnsName apex = N("example.com");
  const DnsName www = apex.prepended("WWW");
  EXPECT_EQ(www.to_string(), "www.example.com");
  EXPECT_TRUE(www.ends_with(apex));
  EXPECT_TRUE(www.ends_with(N("com")));
  EXPECT_TRUE(www.ends_with(www));
  EXPECT_FALSE(apex.ends_with(www));
  EXPECT_FALSE(N("notexample.com").ends_with(apex));
}

TEST(DnsName, HashConsistent) {
  EXPECT_EQ(DnsNameHash{}(N("a.b.c")), DnsNameHash{}(N("A.B.C")));
  EXPECT_NE(DnsNameHash{}(N("a.b.c")), DnsNameHash{}(N("a.bc")));
}

// --- Message codec ---------------------------------------------------------------

TEST(Message, QueryRoundTrip) {
  const Message query = Message::query(0x1234, N("www.example.com"), RecordType::kA);
  const auto bytes = encode(query);
  auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded.value().id, 0x1234);
  EXPECT_FALSE(decoded.value().is_response);
  ASSERT_EQ(decoded.value().questions.size(), 1u);
  EXPECT_EQ(decoded.value().questions[0].name, N("www.example.com"));
  EXPECT_EQ(decoded.value().questions[0].type, RecordType::kA);

  // Names decode lowercase, whatever case the wire carries.
  auto shouted = bytes;
  for (std::size_t i = 12; i + 4 < shouted.size(); ++i) {
    if (shouted[i] >= 'a' && shouted[i] <= 'z') shouted[i] -= 'a' - 'A';
  }
  auto lowered = decode(shouted);
  ASSERT_TRUE(lowered.ok()) << lowered.error().message;
  EXPECT_EQ(lowered.value().questions[0].name, N("www.example.com"));
}

TEST(Message, ResponseWithAllRecordTypesRoundTrips) {
  Message m;
  m.id = 7;
  m.is_response = true;
  m.authoritative = true;
  m.rcode = Rcode::kNoError;
  m.questions.push_back(Question{N("a.example.com"), RecordType::kA});
  m.answers.push_back(ResourceRecord::a(N("a.example.com"), A4("192.0.2.1"), 60));
  m.answers.push_back(
      ResourceRecord::aaaa(N("a.example.com"), A4("2a00:1450::1"), 60));
  m.answers.push_back(
      ResourceRecord::cname(N("alias.example.com"), N("a.example.com")));
  m.authority.push_back(ResourceRecord{
      N("example.com"), RecordType::kSoa, 300,
      SoaData{N("ns1.example.com"), N("admin.example.com"), 1, 2, 3, 4, 5}});
  m.additional.push_back(
      ResourceRecord{N("example.com"), RecordType::kTxt, 300, std::string("hello")});
  m.additional.push_back(ResourceRecord{N("example.com"), RecordType::kNs, 300,
                                        DnsName(N("ns1.example.com"))});

  const auto bytes = encode(m);
  auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  const Message& d = decoded.value();
  EXPECT_TRUE(d.is_response);
  EXPECT_TRUE(d.authoritative);
  ASSERT_EQ(d.answers.size(), 3u);
  EXPECT_EQ(d.answers[0], m.answers[0]);
  EXPECT_EQ(d.answers[1], m.answers[1]);
  EXPECT_EQ(d.answers[2], m.answers[2]);
  ASSERT_EQ(d.authority.size(), 1u);
  EXPECT_EQ(d.authority[0], m.authority[0]);
  ASSERT_EQ(d.additional.size(), 2u);
  EXPECT_EQ(d.additional[0], m.additional[0]);
  EXPECT_EQ(d.additional[1], m.additional[1]);
}

TEST(Message, CompressionShrinksRepeatedNames) {
  Message m;
  m.id = 1;
  m.is_response = true;
  m.questions.push_back(Question{N("www.long-domain-name.example.com"),
                                 RecordType::kA});
  for (int i = 0; i < 5; ++i) {
    m.answers.push_back(ResourceRecord::a(N("www.long-domain-name.example.com"),
                                          A4("192.0.2.1")));
  }
  const auto bytes = encode(m);
  // Uncompressed, the name alone is 34 bytes x 6 occurrences; compression
  // must collapse each repeat to a 2-byte pointer.
  EXPECT_LT(bytes.size(), 150u);
  auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().answers[4].name, N("www.long-domain-name.example.com"));
}

TEST(Message, CompressionSharesSuffixes) {
  Message m;
  m.id = 1;
  m.is_response = true;
  m.answers.push_back(ResourceRecord::cname(N("a.example.com"), N("b.example.com")));
  const auto bytes = encode(m);
  auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<DnsName>(decoded.value().answers[0].rdata), N("b.example.com"));

  // A wire label may contain '.': {"a.b", "c"} and {"a", "b.c"} have the
  // same dotted text but are different names, so they must not share a
  // compression pointer. DnsName::parse cannot spell them; build the
  // bytes by hand.
  util::ByteWriter w;
  w.put_u16(1);       // id
  w.put_u16(0x8000);  // response
  w.put_u16(1);       // qdcount
  w.put_u16(1);       // ancount
  w.put_u16(0);
  w.put_u16(0);
  w.put_u8(3);
  w.put_string("a.b");
  w.put_u8(1);
  w.put_string("c");
  w.put_u8(0);
  w.put_u16(1);  // A
  w.put_u16(1);  // IN
  w.put_u8(1);
  w.put_string("a");
  w.put_u8(3);
  w.put_string("b.c");
  w.put_u8(0);
  w.put_u16(1);  // A
  w.put_u16(1);  // IN
  w.put_u32(300);
  w.put_u16(4);
  w.put_u32(0xC0000201);  // 192.0.2.1
  auto dotted = decode(w.bytes());
  ASSERT_TRUE(dotted.ok()) << dotted.error().message;
  ASSERT_EQ(dotted.value().answers.size(), 1u);
  const DnsName& owner = dotted.value().answers[0].name;
  EXPECT_NE(owner, dotted.value().questions[0].name);
  auto again = decode(encode(dotted.value()));
  ASSERT_TRUE(again.ok()) << again.error().message;
  ASSERT_EQ(again.value().answers.size(), 1u);
  EXPECT_EQ(again.value().answers[0].name, owner);
}

TEST(Message, DecodeRejectsTruncation) {
  const Message query = Message::query(1, N("www.example.com"), RecordType::kA);
  auto bytes = encode(query);
  for (std::size_t cut : {std::size_t{1}, std::size_t{5}, std::size_t{11},
                          bytes.size() - 1}) {
    util::Bytes truncated(bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(decode(truncated).ok()) << "cut=" << cut;
  }
}

TEST(Message, DecodeRejectsTrailingGarbage) {
  auto bytes = encode(Message::query(1, N("example.com"), RecordType::kA));
  bytes.push_back(0xFF);
  EXPECT_FALSE(decode(bytes).ok());
}

TEST(Message, DecodeRejectsCompressionLoop) {
  // Hand-craft a message whose qname is a pointer pointing at itself.
  util::ByteWriter w;
  w.put_u16(1);   // id
  w.put_u16(0);   // flags
  w.put_u16(1);   // qdcount
  w.put_u16(0);
  w.put_u16(0);
  w.put_u16(0);
  w.put_u16(0xC00C);  // name: pointer to offset 12 (itself)
  w.put_u16(1);       // qtype
  w.put_u16(1);       // qclass
  EXPECT_FALSE(decode(w.bytes()).ok());
}

TEST(Message, DecodeRejectsForwardPointer) {
  util::ByteWriter w;
  w.put_u16(1);
  w.put_u16(0);
  w.put_u16(1);
  w.put_u16(0);
  w.put_u16(0);
  w.put_u16(0);
  w.put_u16(0xC020);  // points forward past the name
  w.put_u16(1);
  w.put_u16(1);
  EXPECT_FALSE(decode(w.bytes()).ok());
}

TEST(Message, DecodeRejectsOverlongName) {
  // RFC 1035 §3.1: a name is at most 255 octets, counting every length
  // octet and the root byte.
  const auto query_named = [](std::initializer_list<std::size_t> label_sizes) {
    util::ByteWriter w;
    w.put_u16(1);
    w.put_u16(0);
    w.put_u16(1);
    w.put_u16(0);
    w.put_u16(0);
    w.put_u16(0);
    for (const std::size_t size : label_sizes) {
      w.put_u8(static_cast<std::uint8_t>(size));
      w.put_string(std::string(size, 'a'));
    }
    w.put_u8(0);
    w.put_u16(1);
    w.put_u16(1);
    return w.bytes();
  };
  const auto longest = decode(query_named({63, 63, 63, 61}));
  ASSERT_TRUE(longest.ok()) << longest.error().message;
  EXPECT_EQ(longest.value().questions[0].name.encoded_size(), 255u);
  EXPECT_FALSE(decode(query_named({63, 63, 63, 62})).ok());
}

TEST(Message, RcodeSurvivesRoundTrip) {
  Message m;
  m.id = 3;
  m.is_response = true;
  m.rcode = Rcode::kNxDomain;
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().rcode, Rcode::kNxDomain);
}

// --- Zone DB + server -----------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : server_(&zones_) {
    zones_.add(ResourceRecord::a(N("direct.example.com"), A4("192.0.2.10")));
    zones_.add(ResourceRecord::a(N("direct.example.com"), A4("192.0.2.11")));
    zones_.add(ResourceRecord::aaaa(N("direct.example.com"), A4("2a00::10")));
    zones_.add(ResourceRecord::cname(N("alias.example.com"), N("direct.example.com")));
    zones_.add(ResourceRecord::cname(N("deep.example.com"), N("alias.example.com")));
    // CNAME loop.
    zones_.add(ResourceRecord::cname(N("loop-a.example.com"), N("loop-b.example.com")));
    zones_.add(ResourceRecord::cname(N("loop-b.example.com"), N("loop-a.example.com")));
  }

  InMemoryZoneDb zones_;
  AuthoritativeServer server_;
};

TEST_F(ServerTest, AnswersDirectQuery) {
  const Message response =
      server_.handle(Message::query(9, N("direct.example.com"), RecordType::kA));
  EXPECT_TRUE(response.is_response);
  EXPECT_TRUE(response.authoritative);
  EXPECT_EQ(response.id, 9);
  EXPECT_EQ(response.rcode, Rcode::kNoError);
  EXPECT_EQ(response.answers.size(), 2u);
}

TEST_F(ServerTest, ReturnsCnameForAliasedName) {
  const Message response =
      server_.handle(Message::query(9, N("alias.example.com"), RecordType::kA));
  ASSERT_EQ(response.answers.size(), 1u);
  EXPECT_EQ(response.answers[0].type, RecordType::kCname);
}

TEST_F(ServerTest, NxDomainForUnknownName) {
  const Message response =
      server_.handle(Message::query(9, N("missing.example.com"), RecordType::kA));
  EXPECT_EQ(response.rcode, Rcode::kNxDomain);
  EXPECT_TRUE(response.answers.empty());
  EXPECT_EQ(server_.stats().nxdomain, 1u);
}

TEST_F(ServerTest, NoErrorEmptyForExistingNameWrongType) {
  const Message response =
      server_.handle(Message::query(9, N("direct.example.com"), RecordType::kTxt));
  EXPECT_EQ(response.rcode, Rcode::kNoError);
  EXPECT_TRUE(response.answers.empty());
}

TEST_F(ServerTest, MalformedBytesGetFormErr) {
  const util::Bytes garbage = {1, 2, 3};
  const auto response_bytes = server_.handle_bytes(garbage);
  auto response = decode(response_bytes);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().rcode, Rcode::kFormErr);
}

// --- StubResolver ------------------------------------------------------------------------

TEST_F(ServerTest, ResolverDirect) {
  StubResolver resolver(&server_);
  auto result = resolver.resolve(N("direct.example.com"), RecordType::kA);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().addresses.size(), 2u);
  EXPECT_EQ(result.value().cname_hops(), 0u);
}

TEST_F(ServerTest, ResolverChasesChain) {
  StubResolver resolver(&server_);
  auto result = resolver.resolve(N("deep.example.com"), RecordType::kA);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().addresses.size(), 2u);
  EXPECT_EQ(result.value().cname_hops(), 2u);
  ASSERT_EQ(result.value().chain.size(), 3u);
  EXPECT_EQ(result.value().chain[0], N("deep.example.com"));
  EXPECT_EQ(result.value().chain[2], N("direct.example.com"));
}

TEST_F(ServerTest, ResolverDetectsLoop) {
  StubResolver resolver(&server_);
  auto result = resolver.resolve(N("loop-a.example.com"), RecordType::kA);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("loop"), std::string::npos);
}

TEST_F(ServerTest, ResolverReportsNxDomain) {
  StubResolver resolver(&server_);
  auto result = resolver.resolve(N("missing.example.com"), RecordType::kA);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rcode, Rcode::kNxDomain);
  EXPECT_TRUE(result.value().addresses.empty());
}

TEST_F(ServerTest, ResolveAllMergesFamilies) {
  StubResolver resolver(&server_);
  auto result = resolver.resolve_all(N("direct.example.com"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().addresses.size(), 3u);  // 2x A + 1x AAAA
  EXPECT_EQ(result.value().rcode, Rcode::kNoError);
}

TEST_F(ServerTest, ResolverCountsQueries) {
  StubResolver resolver(&server_);
  (void)resolver.resolve(N("deep.example.com"), RecordType::kA);
  EXPECT_EQ(resolver.queries_sent(), 3u);  // deep -> alias -> direct
}

TEST_F(ServerTest, DatagramTruncationAndTcpRetry) {
  // A name with enough A records that the response exceeds 512 bytes.
  for (int i = 0; i < 40; ++i) {
    zones_.add(ResourceRecord::a(
        N("many.example.com"),
        A4("192.0.2." + std::to_string(i + 1))));
  }

  // Raw UDP path: truncated, empty answers, TC set.
  const auto query = Message::query(5, N("many.example.com"), RecordType::kA);
  const auto udp_bytes = server_.handle_datagram(encode(query));
  EXPECT_LE(udp_bytes.size(), AuthoritativeServer::kUdpPayloadLimit);
  auto udp = decode(udp_bytes);
  ASSERT_TRUE(udp.ok());
  EXPECT_TRUE(udp.value().truncated);
  EXPECT_TRUE(udp.value().answers.empty());
  EXPECT_EQ(server_.stats().truncated, 1u);

  // TCP path: complete.
  auto tcp = decode(server_.handle_stream(encode(query)));
  ASSERT_TRUE(tcp.ok());
  EXPECT_FALSE(tcp.value().truncated);
  EXPECT_EQ(tcp.value().answers.size(), 40u);

  // The resolver does the retry automatically and still gets everything.
  StubResolver resolver(&server_);
  auto result = resolver.resolve(N("many.example.com"), RecordType::kA);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result.value().addresses.size(), 40u);
  EXPECT_EQ(resolver.tcp_retries(), 1u);

  // The resolver's scratch still holds the TC response and the 40-answer
  // one; neither may leak into its next resolve.
  auto direct = resolver.resolve(N("direct.example.com"), RecordType::kA);
  ASSERT_TRUE(direct.ok()) << direct.error().message;
  EXPECT_EQ(direct.value().addresses.size(), 2u);
  EXPECT_EQ(resolver.tcp_retries(), 1u);
}

TEST_F(ServerTest, SmallResponsesAreNotTruncated) {
  const auto query = Message::query(6, N("direct.example.com"), RecordType::kA);
  auto udp = decode(server_.handle_datagram(encode(query)));
  ASSERT_TRUE(udp.ok());
  EXPECT_FALSE(udp.value().truncated);
  EXPECT_EQ(udp.value().answers.size(), 2u);

  StubResolver resolver(&server_);
  auto result = resolver.resolve(N("direct.example.com"), RecordType::kA);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(resolver.tcp_retries(), 0u);
}

TEST_F(ServerTest, ConcurrentQueriesSumTheirTallies) {
  // Enough A records that the datagram answer is truncated.
  for (int i = 0; i < 40; ++i) {
    zones_.add(ResourceRecord::a(N("many.example.com"),
                                 A4("192.0.2." + std::to_string(i + 1))));
  }
  // Per round: an address, an alias, an unknown name, a truncated answer
  // and a malformed query.
  const std::array<util::Bytes, 5> queries = {
      encode(Message::query(1, N("direct.example.com"), RecordType::kA)),
      encode(Message::query(2, N("alias.example.com"), RecordType::kAaaa)),
      encode(Message::query(3, N("missing.example.com"), RecordType::kA)),
      encode(Message::query(4, N("many.example.com"), RecordType::kA)),
      util::Bytes{1, 2, 3},
  };
  const std::array<Rcode, 5> rcodes = {Rcode::kNoError, Rcode::kNoError,
                                       Rcode::kNxDomain, Rcode::kNoError,
                                       Rcode::kFormErr};
  constexpr int kThreads = 4;
  constexpr std::uint64_t kRounds = 500;
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      AuthoritativeServer::Scratch scratch;
      util::Bytes out;
      for (std::uint64_t round = 0; round < kRounds; ++round) {
        for (std::size_t q = 0; q < queries.size(); ++q) {
          server_.handle_datagram(queries[q], scratch, out);
          const auto response = decode(out);
          if (!response.ok() || response.value().rcode != rcodes[q]) ++wrong;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(wrong.load(), 0u);
  const auto stats = server_.stats();
  const std::uint64_t rounds = kThreads * kRounds;
  EXPECT_EQ(stats.queries, rounds * queries.size());
  EXPECT_EQ(stats.nxdomain, rounds);
  EXPECT_EQ(stats.truncated, rounds);
  EXPECT_EQ(stats.formerr, rounds);
}

TEST(Message, TruncatedFlagRoundTrips) {
  Message m;
  m.id = 2;
  m.is_response = true;
  m.truncated = true;
  auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().truncated);
}

TEST(ZoneDb, CountsRecords) {
  InMemoryZoneDb zones;
  zones.add(ResourceRecord::a(N("a.example"), A4("192.0.2.1")));
  zones.add(ResourceRecord::a(N("a.example"), A4("192.0.2.2")));
  EXPECT_EQ(zones.record_count(), 2u);
  EXPECT_TRUE(zones.name_exists(N("a.example")));
  EXPECT_FALSE(zones.name_exists(N("b.example")));
  EXPECT_EQ(zones.lookup(N("a.example"), RecordType::kA).size(), 2u);
  EXPECT_TRUE(zones.lookup(N("a.example"), RecordType::kAaaa).empty());
}

}  // namespace
}  // namespace ripki::dns
