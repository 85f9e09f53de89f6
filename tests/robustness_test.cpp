// Decoder robustness: every wire parser in the library is fed thousands of
// randomly mutated (bit-flipped, truncated, extended) versions of valid
// messages. The property under test: parsers either succeed or return an
// error — never crash, hang, or read out of bounds (run under ASan to get
// the full value of this suite). The DNS codec is also held to two value
// properties: decoding into reused scratch equals a fresh decode, and
// whatever decodes re-encodes to bytes that decode to the same value. The
// TLV, MRT, XML, certificate, ROA, CRL, manifest, BGP UPDATE and RTR
// stream codecs must reject a mutant or reach a fixed point: re-encoding
// what decoded and decoding that again re-encodes to the same bytes. The
// HTTP request parser must reach the same verdict and the same requests
// however a mutant's bytes are split across feeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <ostream>
#include <string>
#include <vector>

#include "bgp/mrt.hpp"
#include "bgp/update.hpp"
#include "dns/message.hpp"
#include "dns/server.hpp"
#include "encoding/tlv.hpp"
#include "encoding/xml.hpp"
#include "rpki/cert.hpp"
#include "rpki/crl.hpp"
#include "rpki/manifest.hpp"
#include "rpki/repository.hpp"
#include "rpki/roa.hpp"
#include "rpki/rrdp.hpp"
#include "rpki/tal.hpp"
#include "rtr/pdu.hpp"
#include "serve/http.hpp"
#include "util/prng.hpp"

namespace ripki {
namespace {

/// Applies one random mutation: bit flip, truncation, extension, or a
/// splice of random bytes.
util::Bytes mutate(const util::Bytes& original, util::Prng& prng) {
  util::Bytes out = original;
  switch (prng.uniform(4)) {
    case 0: {  // bit flip(s)
      if (out.empty()) break;
      const int flips = 1 + static_cast<int>(prng.uniform(4));
      for (int i = 0; i < flips; ++i) {
        out[prng.index(out.size())] ^=
            static_cast<std::uint8_t>(1u << prng.uniform(8));
      }
      break;
    }
    case 1: {  // truncate
      if (out.empty()) break;
      out.resize(prng.index(out.size()));
      break;
    }
    case 2: {  // extend with junk
      const std::size_t extra = 1 + prng.index(16);
      for (std::size_t i = 0; i < extra; ++i) {
        out.push_back(static_cast<std::uint8_t>(prng.next_u64()));
      }
      break;
    }
    default: {  // overwrite a random window
      if (out.empty()) break;
      const std::size_t start = prng.index(out.size());
      const std::size_t len = std::min(out.size() - start, 1 + prng.index(8));
      for (std::size_t i = 0; i < len; ++i) {
        out[start + i] = static_cast<std::uint8_t>(prng.next_u64());
      }
      break;
    }
  }
  return out;
}

/// Succeeds when `decode` rejects `input`, or when re-encoding what it
/// decoded gives bytes that decode and re-encode to the same bytes.
template <typename Input, typename Decode, typename Encode>
::testing::AssertionResult rejects_or_reaches_fixed_point(const Input& input,
                                                          Decode decode,
                                                          Encode encode) {
  const auto value = decode(input);
  if (!value.ok()) return ::testing::AssertionSuccess();
  const Input once = encode(value.value());
  const auto again = decode(once);
  if (!again.ok()) {
    return ::testing::AssertionFailure()
           << "re-encoding does not decode: " << again.error().message;
  }
  if (encode(again.value()) != once) {
    return ::testing::AssertionFailure() << "re-encoding is no fixed point";
  }
  return ::testing::AssertionSuccess();
}

/// One trust anchor's repository: one CA point publishing `roas` ROAs,
/// the last of them revoked on its CRL when there are two or more.
rpki::Repository small_repository(const rpki::TrustAnchor& anchor, int roas,
                                  util::Prng& prng) {
  rpki::RepositoryBuilder builder(anchor, rpki::kDefaultNow, prng);
  const auto ca = builder.add_ca(
      "Org", rpki::ResourceSet({net::Prefix::parse("62.1.0.0/16").value()}));
  for (int i = 0; i < roas; ++i) {
    rpki::RoaContent content;
    content.asn = net::Asn(64512 + static_cast<std::uint32_t>(i));
    content.prefixes = {
        rpki::RoaPrefix{net::Prefix::parse("62.1.0.0/16").value(), 20}};
    builder.add_roa(ca, content);
  }
  if (roas > 1) builder.revoke_roa(ca, static_cast<std::size_t>(roas - 1));
  return builder.build();
}

rpki::TrustAnchor test_anchor(util::Prng& prng) {
  return rpki::make_trust_anchor(
      "RIPE", rpki::ResourceSet({net::Prefix::parse("62.0.0.0/8").value()}),
      rpki::ValidityWindow{0, 4'000'000'000LL}, prng);
}

util::Bytes bytes_of(std::string_view text) {
  return util::Bytes(text.begin(), text.end());
}

std::string text_of(const util::Bytes& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

class Robustness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Robustness, TlvNeverCrashes) {
  util::Prng prng(GetParam());
  encoding::TlvWriter w;
  w.begin(10);
  w.add_u32(11, 42);
  w.add_string(12, "payload");
  w.end();
  w.add_u64(13, 7);
  const auto valid = std::move(w).take();

  const auto decode = [](const util::Bytes& bytes) {
    return encoding::TlvMap::parse(bytes);
  };
  const auto encode = [](const encoding::TlvMap& map) {
    encoding::TlvWriter writer;
    for (const auto& element : map.elements())
      writer.add_bytes(element.tag, element.value);
    return std::move(writer).take();
  };
  for (int i = 0; i < 2'000; ++i) {
    const auto mutated = mutate(valid, prng);
    auto result = encoding::TlvMap::parse(mutated);
    if (result.ok()) {
      // Walk whatever decoded to force accessor paths too.
      for (const auto& element : result.value().elements()) {
        (void)element.as_u8();
        (void)element.as_u32();
        (void)element.as_string();
      }
    }
    EXPECT_TRUE(rejects_or_reaches_fixed_point(mutated, decode, encode))
        << "mutant " << i;
  }
}

TEST_P(Robustness, CertificateAndRoaNeverCrash) {
  util::Prng prng(GetParam());
  const auto repo = small_repository(test_anchor(prng), 1, prng);

  const auto cert_bytes = repo.points[0].ca_cert.encode();
  const auto roa_bytes = repo.points[0].roas[0].encode();

  for (int i = 0; i < 1'000; ++i) {
    ASSERT_TRUE(rejects_or_reaches_fixed_point(
        mutate(cert_bytes, prng),
        [](const util::Bytes& b) { return rpki::Certificate::decode(b); },
        [](const rpki::Certificate& cert) { return cert.encode(); }))
        << "certificate mutation " << i;
    ASSERT_TRUE(rejects_or_reaches_fixed_point(
        mutate(roa_bytes, prng),
        [](const util::Bytes& b) { return rpki::Roa::decode(b); },
        [](const rpki::Roa& roa) { return roa.encode(); }))
        << "ROA mutation " << i;
  }
}

TEST_P(Robustness, CrlAndManifestRejectOrReachAFixedPoint) {
  util::Prng prng(GetParam());
  const auto repo = small_repository(test_anchor(prng), 2, prng);
  const auto crl_bytes = repo.points[0].crl.encode();
  const auto manifest_bytes = repo.points[0].manifest.encode();

  for (int i = 0; i < 1'000; ++i) {
    ASSERT_TRUE(rejects_or_reaches_fixed_point(
        mutate(crl_bytes, prng),
        [](const util::Bytes& b) { return rpki::Crl::decode(b); },
        [](const rpki::Crl& crl) { return crl.encode(); }))
        << "CRL mutation " << i;
    ASSERT_TRUE(rejects_or_reaches_fixed_point(
        mutate(manifest_bytes, prng),
        [](const util::Bytes& b) { return rpki::Manifest::decode(b); },
        [](const rpki::Manifest& manifest) { return manifest.encode(); }))
        << "manifest mutation " << i;
  }
}

TEST_P(Robustness, RrdpXmlRejectsOrReachesAFixedPoint) {
  util::Prng prng(GetParam());
  const auto anchor = test_anchor(prng);
  rpki::RrdpServer server("session-fuzz", small_repository(anchor, 2, prng));
  server.update(small_repository(anchor, 1, prng));
  const std::vector<util::Bytes> documents = {
      bytes_of(server.notification_xml()), bytes_of(server.snapshot_xml()),
      bytes_of(server.delta_xml(server.serial()))};

  const auto decode = [](const std::string& text) {
    return encoding::xml_parse(text);
  };
  for (const util::Bytes& document : documents) {
    ASSERT_TRUE(rejects_or_reaches_fixed_point(text_of(document), decode,
                                               encoding::xml_encode));
  }
  for (int i = 0; i < 2'000; ++i) {
    const util::Bytes& document = documents[prng.index(documents.size())];
    ASSERT_TRUE(rejects_or_reaches_fixed_point(text_of(mutate(document, prng)),
                                               decode, encoding::xml_encode))
        << "mutation " << i;
  }
}

TEST_P(Robustness, RrdpDeltaNeverCrashes) {
  util::Prng prng(GetParam());
  const auto anchor = test_anchor(prng);
  // The delta republishes the point's four objects and withdraws its
  // second ROA, against a mirror bootstrapped from the snapshot before it.
  rpki::RrdpServer server("session-fuzz", small_repository(anchor, 2, prng));
  rpki::RrdpClient synced;
  ASSERT_TRUE(synced.sync(server).ok());
  server.update(small_repository(anchor, 1, prng));
  const util::Bytes delta = bytes_of(server.delta_xml(server.serial()));
  ASSERT_TRUE(rpki::RrdpClient(synced).apply_delta_xml(text_of(delta)).ok());

  for (int i = 0; i < 1'000; ++i) {
    rpki::RrdpClient client = synced;
    (void)client.apply_delta_xml(text_of(mutate(delta, prng)));
  }
}

TEST_P(Robustness, MrtNeverCrashes) {
  util::Prng prng(GetParam());
  bgp::Rib rib;
  rib.add_peer(bgp::PeerEntry{1, net::IpAddress::v4(192, 0, 2, 1), net::Asn(3320)});
  rib.add(bgp::RibEntry{net::Prefix::parse("10.0.0.0/8").value(),
                        bgp::AsPath::sequence({3320, 100}), 0, 0});
  rib.add(bgp::RibEntry{net::Prefix::parse("2a00::/24").value(),
                        bgp::AsPath::sequence({3320, 200}), 0, 0});
  const auto valid = bgp::mrt::write_table_dump(rib, 1, "fuzz", 0);

  const auto decode = [](const util::Bytes& bytes) {
    return bgp::mrt::read_table_dump(bytes);
  };
  const auto encode = [](const bgp::Rib& decoded) {
    return bgp::mrt::write_table_dump(decoded, 1, "fuzz", 0);
  };
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_TRUE(rejects_or_reaches_fixed_point(mutate(valid, prng), decode,
                                               encode))
        << "mutant " << i;
  }
}

TEST_P(Robustness, DnsMessageNeverCrashes) {
  util::Prng prng(GetParam());
  dns::Message m;
  m.id = 7;
  m.is_response = true;
  const auto name = dns::DnsName::parse("www.fuzz-target.example").value();
  const auto edge = dns::DnsName::parse("edge.cdn.example").value();
  m.questions.push_back(dns::Question{name, dns::RecordType::kA});
  m.answers.push_back(dns::ResourceRecord::cname(name, edge));
  m.answers.push_back(dns::ResourceRecord::a(edge, net::IpAddress::v4(192, 0, 2, 7)));
  const auto valid = dns::encode(m);

  // A different valid message, decoded into the scratch before every
  // mutated input: other header bits, a second question, more answers
  // with the rdata alternatives in other slots, other TTLs, and records in
  // every section. Anything it leaves behind shows up as a difference
  // from a fresh decode.
  dns::Message prior;
  prior.id = 0x5eed;
  prior.is_response = true;
  prior.authoritative = true;
  prior.truncated = true;
  prior.rcode = dns::Rcode::kNxDomain;
  const auto alias = dns::DnsName::parse("alias.other-cdn.example").value();
  prior.questions.push_back(dns::Question{alias, dns::RecordType::kAaaa});
  prior.questions.push_back(dns::Question{edge, dns::RecordType::kTxt});
  prior.answers.push_back(
      dns::ResourceRecord::a(alias, net::IpAddress::v4(198, 51, 100, 1), 60));
  prior.answers.push_back(dns::ResourceRecord::cname(alias, name, 61));
  prior.answers.push_back(dns::ResourceRecord::aaaa(
      edge, net::IpAddress::parse("2001:db8::7").value(), 62));
  prior.answers.push_back(dns::ResourceRecord::cname(edge, alias, 63));
  prior.authority.push_back(dns::ResourceRecord{
      edge, dns::RecordType::kSoa, 64,
      dns::SoaData{alias, name, 1, 2, 3, 4, 5}});
  prior.additional.push_back(
      dns::ResourceRecord{alias, dns::RecordType::kTxt, 65, std::string("stale")});
  const auto prior_bytes = dns::encode(prior);

  dns::Message scratch;
  for (int i = 0; i < 2'000; ++i) {
    const auto mutated = mutate(valid, prng);
    const auto fresh = dns::decode(mutated);

    // Scratch reuse: same success, same value.
    ASSERT_TRUE(dns::decode_into(prior_bytes, scratch).ok());
    const auto reused = dns::decode_into(mutated, scratch);
    ASSERT_EQ(reused.ok(), fresh.ok()) << "mutation " << i;
    if (!fresh.ok()) continue;
    EXPECT_EQ(scratch, fresh.value()) << "mutation " << i;

    // Re-encode: whatever decodes re-encodes to bytes that decode to the
    // same value.
    const auto again = dns::decode(dns::encode(fresh.value()));
    ASSERT_TRUE(again.ok()) << "mutation " << i << ": " << again.error().message;
    EXPECT_EQ(again.value(), fresh.value()) << "mutation " << i;
  }
}

TEST_P(Robustness, DnsServerReusedScratchMatchesFresh) {
  util::Prng prng(GetParam());
  const auto name = [](const char* text) { return dns::DnsName::parse(text).value(); };
  const auto www = name("www.fuzz-target.example");
  const auto edge = name("edge.cdn.example");
  const auto multi = name("multi.fuzz-target.example");
  dns::InMemoryZoneDb zone;
  zone.add(dns::ResourceRecord::cname(www, edge));
  for (std::uint8_t i = 1; i <= 4; ++i)
    zone.add(dns::ResourceRecord::a(edge, net::IpAddress::v4(192, 0, 2, i)));
  zone.add(dns::ResourceRecord::aaaa(edge, net::IpAddress::parse("2001:db8::1").value()));
  // An alias with three CNAME records: the answer the reused scratch
  // holds before every mutated query, its slots carrying name rdata and
  // long owner names.
  for (const char* target : {"first-target.other-cdn.example", "second.example",
                             "third-target-with-a-longer-name.cdn.example"})
    zone.add(dns::ResourceRecord::cname(multi, name(target)));
  const dns::AuthoritativeServer server(&zone);

  const util::Bytes prior = dns::encode(dns::Message::query(0x5eed, multi, dns::RecordType::kA));
  const std::array<util::Bytes, 2> valid = {
      dns::encode(dns::Message::query(7, www, dns::RecordType::kA)),
      dns::encode(dns::Message::query(8, edge, dns::RecordType::kA))};

  dns::AuthoritativeServer::Scratch reused;
  util::Bytes reused_out;
  for (int i = 0; i < 2'000; ++i) {
    const auto mutated = mutate(valid[static_cast<std::size_t>(i) % valid.size()], prng);
    server.handle_datagram(prior, reused, reused_out);
    ASSERT_EQ(reused.response.answers.size(), 3u);
    server.handle_datagram(mutated, reused, reused_out);

    dns::AuthoritativeServer::Scratch fresh;
    util::Bytes fresh_out;
    server.handle_datagram(mutated, fresh, fresh_out);
    ASSERT_EQ(reused_out, fresh_out) << "mutation " << i;
    const auto decoded = dns::decode(fresh_out);
    ASSERT_TRUE(decoded.ok()) << "mutation " << i << ": " << decoded.error().message;
  }
}

TEST_P(Robustness, RtrStreamNeverCrashes) {
  util::Prng prng(GetParam());
  util::ByteWriter w;
  w.put_bytes(rtr::encode(rtr::Pdu{rtr::CacheResponse{3}}, rtr::kVersion1));
  w.put_bytes(rtr::encode(
      rtr::Pdu{rtr::PrefixPdu{true, net::Prefix::parse("10.0.0.0/8").value(), 16,
                              net::Asn(5)}},
      rtr::kVersion1));
  w.put_bytes(rtr::encode(rtr::Pdu{rtr::EndOfData{3, 9}}, rtr::kVersion1));
  const auto valid = w.bytes();

  // Whatever decodes is re-encoded at version 1, PDU by PDU in order.
  const auto decode = [](const util::Bytes& b) { return rtr::decode_stream(b); };
  const auto encode = [](const std::vector<rtr::Pdu>& pdus) {
    util::ByteWriter out;
    for (const rtr::Pdu& pdu : pdus) out.put_bytes(rtr::encode(pdu, rtr::kVersion1));
    return std::move(out).take();
  };
  for (int i = 0; i < 2'000; ++i) {
    ASSERT_TRUE(rejects_or_reaches_fixed_point(mutate(valid, prng), decode, encode))
        << "mutation " << i;
  }
}

TEST_P(Robustness, BgpUpdateNeverCrashes) {
  util::Prng prng(GetParam());
  bgp::UpdateMessage update;
  update.as_path = bgp::AsPath::sequence({3320, 1299, 15169});
  update.next_hop = net::IpAddress::v4(192, 0, 2, 1);
  update.nlri = {net::Prefix::parse("208.65.152.0/22").value()};
  update.withdrawn = {net::Prefix::parse("10.0.0.0/8").value()};
  const auto valid = bgp::encode_update(update).value();

  const auto decode = [](const util::Bytes& b) {
    util::ByteReader reader(b);
    return bgp::decode_update(reader);
  };
  // An update that decoded but does not re-encode yields no bytes, which
  // the fixed-point check then reports as not decoding.
  const auto encode = [](const bgp::UpdateMessage& message) {
    auto bytes = bgp::encode_update(message);
    return bytes.ok() ? std::move(bytes).value() : util::Bytes{};
  };
  for (int i = 0; i < 2'000; ++i) {
    ASSERT_TRUE(rejects_or_reaches_fixed_point(mutate(valid, prng), decode, encode))
        << "mutation " << i;
  }
}

TEST_P(Robustness, TalParserNeverCrashes) {
  util::Prng prng(GetParam());
  const std::string valid =
      "rsync://rpki.ripe.example/ta/ripe.cer\n"
      "QUJDREVGR0hJSktMTU5PUFFSU1RVVldYWVphYmNkZWZnaGlqa2xtbm9wcXJzdHV2d3h5"
      "ekFCQ0RFRkdISUpLTE1OT1A=\n";
  for (int i = 0; i < 2'000; ++i) {
    util::Bytes bytes(valid.begin(), valid.end());
    const auto mutated = mutate(bytes, prng);
    (void)rpki::parse_tal(
        std::string_view(reinterpret_cast<const char*>(mutated.data()),
                         mutated.size()));
  }
}

/// What one feed schedule yields: every request, rendered field by field
/// in order, and the parser's final verdict.
struct ParsedStream {
  std::vector<std::string> requests;
  bool failed = false;

  bool operator==(const ParsedStream&) const = default;
};

void PrintTo(const ParsedStream& parsed, std::ostream* os) {
  *os << parsed.requests.size() << " requests, "
      << (parsed.failed ? "failed" : "not failed");
  for (const std::string& request : parsed.requests) *os << "\n  " << request;
}

/// Feeds `bytes` in pieces that end at each of the ascending `cuts`, then
/// at the end, popping every request as soon as it is complete.
ParsedStream parse_in_pieces(std::string_view bytes,
                             const std::vector<std::size_t>& cuts,
                             serve::RequestParser::Limits limits) {
  serve::RequestParser parser(limits);
  ParsedStream out;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= cuts.size(); ++i) {
    const std::size_t end = i < cuts.size() ? cuts[i] : bytes.size();
    parser.feed(bytes.substr(begin, end - begin));
    while (auto request = parser.next()) {
      out.requests.push_back(request->method + ' ' + request->target + ' ' +
                             request->path + " ?" + request->query + " 1." +
                             std::to_string(request->version_minor) +
                             (request->keep_alive ? " keep-alive" : " close"));
    }
    begin = end;
  }
  out.failed = parser.failed();
  return out;
}

TEST_P(Robustness, HttpRequestParserVerdictIgnoresSplits) {
  util::Prng prng(GetParam());
  // Four pipelined requests, their heads 33, 48, 59 and 68 bytes long: a
  // GET, a blank line and a POST with a 5-byte body, an HTTP/1.0 GET, and
  // a GET with a query and a Connection header.
  const util::Bytes valid = bytes_of(
      "GET /v1/summary HTTP/1.1\r\nHost: x\r\n\r\n"
      "\r\nPOST /v1/ip/10.0.0.1 HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
      "GET /v1/prefix/10.0.0.0/8/64512 HTTP/1.0\r\nConnection: close\r\n\r\n"
      "GET /v1/domain/example.com?pretty=1 HTTP/1.1\r\n"
      "Connection: keep-alive\r\n\r\n");
  // The default limits, and three tight ones that a head's terminator or
  // the body straddles, so a mutant's verdict often turns on them.
  const std::vector<serve::RequestParser::Limits> limit_sets = {
      {},
      {.max_head_bytes = 34, .max_body_bytes = 5},
      {.max_head_bytes = 50, .max_body_bytes = 4},
      {.max_head_bytes = 61, .max_body_bytes = 5}};
  for (int i = 0; i < 1'000; ++i) {
    const std::string mutated = text_of(mutate(valid, prng));
    // Seeded schedules: four single cuts, one of three cuts, and one byte
    // per feed.
    std::vector<std::vector<std::size_t>> schedules;
    for (int k = 0; k < 5; ++k) {
      std::vector<std::size_t> cuts;
      for (int c = 0; c < (k < 4 ? 1 : 3); ++c) {
        cuts.push_back(prng.index(mutated.size() + 1));
      }
      std::sort(cuts.begin(), cuts.end());
      schedules.push_back(std::move(cuts));
    }
    std::vector<std::size_t> every_byte(mutated.size());
    for (std::size_t b = 0; b < mutated.size(); ++b) every_byte[b] = b;
    schedules.push_back(std::move(every_byte));

    for (const auto& limits : limit_sets) {
      const ParsedStream whole = parse_in_pieces(mutated, {}, limits);
      for (const auto& cuts : schedules) {
        ASSERT_EQ(parse_in_pieces(mutated, cuts, limits), whole)
            << "mutation " << i << " split into " << cuts.size() + 1
            << " feeds (first cut " << (cuts.empty() ? 0 : cuts.front())
            << ", head limit " << limits.max_head_bytes << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Robustness, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace ripki
