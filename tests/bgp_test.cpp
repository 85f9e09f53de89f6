#include <gtest/gtest.h>

#include "bgp/as_path.hpp"
#include "bgp/collector.hpp"
#include "bgp/mrt.hpp"
#include "bgp/rib.hpp"
#include "bgp/speaker.hpp"

namespace ripki::bgp {
namespace {

net::Prefix P(const std::string& text) { return net::Prefix::parse(text).value(); }
net::IpAddress A(const std::string& text) {
  return net::IpAddress::parse(text).value();
}

// --- AsPath -----------------------------------------------------------------

TEST(AsPath, OriginIsRightMostAsn) {
  const AsPath path = AsPath::sequence({3320, 1299, 15169});
  ASSERT_TRUE(path.origin().has_value());
  EXPECT_EQ(path.origin()->value(), 15169u);
  EXPECT_EQ(path.hop_count(), 3u);
  EXPECT_FALSE(path.contains_as_set());
}

TEST(AsPath, AsSetTerminatedPathHasAmbiguousOrigin) {
  PathSegment seq{SegmentType::kAsSequence, {net::Asn(3320), net::Asn(1299)}};
  PathSegment set{SegmentType::kAsSet, {net::Asn(64512), net::Asn(64513)}};
  const AsPath path({seq, set});
  EXPECT_FALSE(path.origin().has_value());
  EXPECT_TRUE(path.contains_as_set());
  EXPECT_EQ(path.hop_count(), 4u);
}

TEST(AsPath, EmptyPathHasNoOrigin) {
  EXPECT_FALSE(AsPath{}.origin().has_value());
  EXPECT_TRUE(AsPath{}.empty());
}

TEST(AsPath, PrependAddsFirstHop) {
  const AsPath path = AsPath::sequence({1299, 15169});
  const AsPath longer = path.prepended(net::Asn(3320));
  EXPECT_EQ(longer.hop_count(), 3u);
  EXPECT_EQ(longer.segments().front().asns.front().value(), 3320u);
  EXPECT_EQ(longer.origin()->value(), 15169u);
}

TEST(AsPath, ToStringShowsSets) {
  PathSegment seq{SegmentType::kAsSequence, {net::Asn(3320)}};
  PathSegment set{SegmentType::kAsSet, {net::Asn(1), net::Asn(2)}};
  EXPECT_EQ(AsPath({seq, set}).to_string(), "3320 {1,2}");
}

TEST(AsPath, WireRoundTrip) {
  PathSegment seq{SegmentType::kAsSequence, {net::Asn(3320), net::Asn(70000)}};
  PathSegment set{SegmentType::kAsSet, {net::Asn(64512)}};
  const AsPath path({seq, set});

  util::ByteWriter w;
  path.encode_into(w);
  auto decoded = AsPath::decode(w.bytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), path);
}

TEST(AsPath, DecodeRejectsBadSegmentType) {
  const util::Bytes bytes = {9, 1, 0, 0, 0, 1};
  EXPECT_FALSE(AsPath::decode(bytes).ok());
}

TEST(AsPath, DecodeRejectsTruncation) {
  const util::Bytes bytes = {2, 2, 0, 0, 0, 1};  // claims 2 ASNs, has 1
  EXPECT_FALSE(AsPath::decode(bytes).ok());
}

// --- Rib ----------------------------------------------------------------------

TEST(Rib, CoveringAndOrigins) {
  Rib rib;
  rib.add(RibEntry{P("10.0.0.0/8"), AsPath::sequence({1, 100}), 0, 0});
  rib.add(RibEntry{P("10.0.0.0/8"), AsPath::sequence({2, 100}), 1, 0});
  rib.add(RibEntry{P("10.1.0.0/16"), AsPath::sequence({1, 200}), 0, 0});

  const auto covering = rib.covering(A("10.1.2.3"));
  ASSERT_EQ(covering.size(), 2u);
  EXPECT_EQ(covering[0].prefix, P("10.0.0.0/8"));
  EXPECT_EQ(covering[1].prefix, P("10.1.0.0/16"));

  const auto origins = rib.origins_for(P("10.0.0.0/8"));
  ASSERT_EQ(origins.size(), 1u);
  EXPECT_EQ(origins.begin()->value(), 100u);
}

TEST(Rib, OriginsExcludeAsSetPaths) {
  Rib rib;
  rib.add(RibEntry{P("10.0.0.0/8"), AsPath::sequence({1, 100}), 0, 0});
  PathSegment seq{SegmentType::kAsSequence, {net::Asn(2)}};
  PathSegment set{SegmentType::kAsSet, {net::Asn(300), net::Asn(400)}};
  rib.add(RibEntry{P("10.0.0.0/8"), AsPath({seq, set}), 1, 0});

  const auto origins = rib.origins_for(P("10.0.0.0/8"));
  EXPECT_EQ(origins.size(), 1u);  // the AS_SET entry contributes nothing
  EXPECT_EQ(rib.entry_count(), 2u);
}

TEST(Rib, MultipleOriginsVisible) {
  Rib rib;
  rib.add(RibEntry{P("10.0.0.0/8"), AsPath::sequence({1, 100}), 0, 0});
  rib.add(RibEntry{P("10.0.0.0/8"), AsPath::sequence({1, 999}), 0, 0});  // MOAS
  EXPECT_EQ(rib.origins_for(P("10.0.0.0/8")).size(), 2u);
}

TEST(Rib, ImageKeepsTheListsItWasTakenWith) {
  Rib rib;
  rib.add(RibEntry{P("10.0.0.0/8"), AsPath::sequence({1, 100}), 0, 0});
  rib.add(RibEntry{P("10.0.0.0/8"), AsPath::sequence({2, 100}), 1, 0});
  const auto unfrozen = rib.image();
  // The add run's list is now shared with an image, so it is not
  // extended in place.
  rib.add(RibEntry{P("10.0.0.0/8"), AsPath::sequence({3, 100}), 2, 0});
  const auto lists = [](const Rib::Image& image, const char* addr) {
    std::vector<std::size_t> sizes;
    for (const auto& match :
         Rib::covering_path(image, image.deepest_covering(A(addr))))
      sizes.push_back(match.entries->size());
    return sizes;
  };
  EXPECT_EQ(lists(*unfrozen, "10.1.2.3"), std::vector<std::size_t>{2});
  EXPECT_EQ(rib.entries_for(P("10.0.0.0/8"))->size(), 3u);

  rib.freeze();
  const auto first = rib.image();
  EXPECT_EQ(rib.image(), first);  // one published image until refreeze()
  rib.announce({RibEntry{P("10.0.0.0/8"), AsPath::sequence({4, 100}), 3, 0},
                RibEntry{P("10.1.0.0/16"), AsPath::sequence({4, 200}), 3, 0}});
  EXPECT_EQ(rib.image(), first);
  rib.refreeze();
  const auto second = rib.image();
  EXPECT_NE(second, first);
  EXPECT_EQ(lists(*first, "10.1.2.3"), std::vector<std::size_t>{3});
  EXPECT_EQ(lists(*second, "10.1.2.3"), (std::vector<std::size_t>{4, 1}));
  EXPECT_EQ(rib.entry_count(), 5u);

  EXPECT_EQ(rib.withdraw(P("10.0.0.0/8")).size(), 4u);
  rib.refreeze();
  EXPECT_EQ(lists(*second, "10.1.2.3"), (std::vector<std::size_t>{4, 1}));
  EXPECT_EQ(lists(*rib.image(), "10.1.2.3"), std::vector<std::size_t>{1});
  EXPECT_EQ(rib.entry_count(), 1u);
}

TEST(Rib, SharingHoldsTheSourceListsAndLeavesThemAlone) {
  Rib source;
  source.add_peer(PeerEntry{0xC0000001, A("192.0.2.10"), net::Asn(3320)});
  source.add(RibEntry{P("10.0.0.0/8"), AsPath::sequence({1, 100}), 0, 0});
  source.add(RibEntry{P("10.0.0.0/8"), AsPath::sequence({2, 100}), 0, 0});
  source.add(RibEntry{P("10.1.0.0/16"), AsPath::sequence({1, 200}), 0, 0});
  source.add(RibEntry{P("2a00:1450::/32"), AsPath::sequence({1, 15169}), 0, 0});
  source.freeze();
  const auto image = source.image();
  std::vector<std::pair<net::Prefix, std::vector<RibEntry>>> entries;
  source.visit([&](const net::Prefix& prefix,
                   const std::vector<RibEntry>& list) {
    entries.emplace_back(prefix, list);
  });

  Rib copy = Rib::sharing(source);
  EXPECT_FALSE(copy.frozen());
  EXPECT_TRUE(copy == source);
  for (const auto& [prefix, list] : entries)
    EXPECT_EQ(copy.entries_for(prefix), source.entries_for(prefix))
        << prefix.to_string();

  // add() before the freeze, then withdraw, announce and refreeze after.
  copy.add(RibEntry{P("10.1.0.0/16"), AsPath::sequence({2, 200}), 0, 0});
  copy.freeze();
  const std::vector<RibEntry> withdrawn = copy.withdraw(P("10.0.0.0/8"));
  EXPECT_EQ(withdrawn.size(), 2u);
  copy.announce({RibEntry{P("2a00:1450::/32"), AsPath::sequence({2, 15169}), 0, 0},
                 RibEntry{P("10.2.0.0/16"), AsPath::sequence({1, 300}), 0, 0}});
  copy.refreeze();
  EXPECT_EQ(copy.prefix_count(), 3u);
  EXPECT_EQ(copy.entry_count(), 5u);
  EXPECT_EQ(copy.entries_for(P("10.1.0.0/16"))->size(), 2u);

  EXPECT_EQ(source.prefix_count(), 3u);
  EXPECT_EQ(source.entry_count(), 4u);
  std::size_t visited = 0;
  source.visit([&](const net::Prefix& prefix,
                   const std::vector<RibEntry>& list) {
    ASSERT_LT(visited, entries.size());
    EXPECT_EQ(prefix, entries[visited].first);
    EXPECT_EQ(list, entries[visited].second) << prefix.to_string();
    ++visited;
  });
  EXPECT_EQ(visited, entries.size());
  EXPECT_EQ(source.image(), image);
  for (const auto& [prefix, list] : entries) {
    const auto path =
        Rib::covering_path(*image, image->deepest_covering(prefix));
    ASSERT_FALSE(path.empty()) << prefix.to_string();
    EXPECT_EQ(path.back().prefix, prefix);
    EXPECT_EQ(*path.back().entries, list) << prefix.to_string();
  }
}

// --- MRT ------------------------------------------------------------------------

Rib sample_rib() {
  Rib rib;
  rib.add_peer(PeerEntry{0xC0000001, A("192.0.2.10"), net::Asn(3320)});
  rib.add_peer(PeerEntry{0xC0000002, A("2001:db8::10"), net::Asn(1299)});
  rib.add(RibEntry{P("10.0.0.0/8"), AsPath::sequence({3320, 100}), 0, 1'400'000'000});
  rib.add(RibEntry{P("10.0.0.0/8"), AsPath::sequence({1299, 100}), 1, 1'400'000'001});
  rib.add(RibEntry{P("23.4.0.0/17"), AsPath::sequence({3320, 64512, 200}), 0,
                   1'400'000'002});
  rib.add(RibEntry{P("2a00:1450::/32"), AsPath::sequence({1299, 15169}), 1,
                   1'400'000'003});
  return rib;
}

TEST(Mrt, TableDumpRoundTrip) {
  const Rib original = sample_rib();
  const util::Bytes dump = mrt::write_table_dump(original, 0x0A000001, "test-view",
                                                 1'433'116'800);

  mrt::ParseStats stats;
  auto parsed = mrt::read_table_dump(dump, &stats);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const Rib& rib = parsed.value();

  EXPECT_EQ(rib.peers().size(), 2u);
  EXPECT_EQ(rib.peers()[0].asn, net::Asn(3320));
  EXPECT_EQ(rib.peers()[1].address, A("2001:db8::10"));
  EXPECT_EQ(rib.prefix_count(), 3u);
  EXPECT_EQ(rib.entry_count(), 4u);
  EXPECT_EQ(stats.rib_entries, 4u);
  EXPECT_GT(stats.records, 1u);

  const auto* entries = rib.entries_for(P("10.0.0.0/8"));
  ASSERT_NE(entries, nullptr);
  EXPECT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].as_path, AsPath::sequence({3320, 100}));
  EXPECT_EQ((*entries)[0].originated_at, 1'400'000'000u);

  const auto origins6 = rib.origins_for(P("2a00:1450::/32"));
  ASSERT_EQ(origins6.size(), 1u);
  EXPECT_EQ(origins6.begin()->value(), 15169u);
}

TEST(Mrt, SkipsUnknownAttributesButKeepsAsPath) {
  const Rib original = sample_rib();
  const util::Bytes dump =
      mrt::write_table_dump(original, 1, "v", 0);
  mrt::ParseStats stats;
  auto parsed = mrt::read_table_dump(dump, &stats);
  ASSERT_TRUE(parsed.ok());
  // ORIGIN and NEXT_HOP attributes are skipped (not AS_PATH).
  EXPECT_GT(stats.skipped_attributes, 0u);
}

TEST(Mrt, RecordRoundTrip) {
  util::ByteWriter w;
  mrt::write_record(w, mrt::Record{123, 13, 1, {9, 9, 9}});
  const auto buf = std::move(w).take();
  util::ByteReader r(buf);
  auto record = mrt::read_record(r);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value().timestamp, 123u);
  EXPECT_EQ(record.value().type, 13u);
  EXPECT_EQ(record.value().subtype, 1u);
  EXPECT_EQ(record.value().body.size(), 3u);
}

TEST(Mrt, RejectsTruncatedDump) {
  util::Bytes dump = mrt::write_table_dump(sample_rib(), 1, "v", 0);
  dump.resize(dump.size() - 3);
  EXPECT_FALSE(mrt::read_table_dump(dump).ok());
}

TEST(Mrt, RejectsRibBeforePeerIndex) {
  // Build a dump whose first record is a RIB record.
  util::ByteWriter w;
  util::ByteWriter body;
  body.put_u32(0);       // sequence
  body.put_u8(8);        // prefix length
  body.put_u8(10);       // prefix byte
  body.put_u16(0);       // entry count
  mrt::write_record(w, mrt::Record{0, 13, 2, std::move(body).take()});
  EXPECT_FALSE(mrt::read_table_dump(w.bytes()).ok());
}

TEST(Mrt, ToleratesForeignRecordTypes) {
  const Rib original = sample_rib();
  util::Bytes dump = mrt::write_table_dump(original, 1, "v", 0);
  // Append a BGP4MP (type 16) record; the reader must skip it.
  util::ByteWriter w;
  w.put_bytes(dump);
  mrt::write_record(w, mrt::Record{0, 16, 4, {1, 2, 3}});
  auto parsed = mrt::read_table_dump(w.bytes());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().entry_count(), original.entry_count());
}

// --- RouteCollector ------------------------------------------------------------------

TEST(RouteCollector, AnnouncementsLandInRibAndDump) {
  RouteCollector collector(0x0A000001, "ris-sim");
  const auto p0 = collector.add_peer(PeerEntry{1, A("192.0.2.1"), net::Asn(3320)});
  collector.announce(p0, P("10.0.0.0/8"), AsPath::sequence({3320, 100}), 7);

  EXPECT_EQ(collector.rib().entry_count(), 1u);
  auto parsed = mrt::read_table_dump(collector.dump_mrt(0));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().entry_count(), 1u);
  EXPECT_EQ(parsed.value().origins_for(P("10.0.0.0/8")).begin()->value(), 100u);
}

// --- BgpSpeaker (hijack policy) ---------------------------------------------------------

class SpeakerTest : public ::testing::Test {
 protected:
  SpeakerTest() {
    index_.add(rpki::Vrp{P("10.10.0.0/16"), 16, net::Asn(65010)});
  }
  rpki::VrpIndex index_;
};

TEST_F(SpeakerTest, WithoutValidationHijackWins) {
  BgpSpeaker speaker(net::Asn(64500));
  // Legitimate route.
  speaker.process(RouteUpdate{P("10.10.0.0/16"), AsPath::sequence({3320, 65010})});
  // Sub-prefix hijack: longer match wins in plain BGP.
  speaker.process(RouteUpdate{P("10.10.128.0/17"), AsPath::sequence({666})});

  const auto best = speaker.best_route(A("10.10.200.1"));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->prefix, P("10.10.128.0/17"));
  EXPECT_EQ(best->as_path.origin()->value(), 666u);
}

TEST_F(SpeakerTest, ValidationDropsHijack) {
  BgpSpeaker speaker(net::Asn(64500));
  speaker.enable_origin_validation(&index_);
  EXPECT_EQ(speaker.process(
                RouteUpdate{P("10.10.0.0/16"), AsPath::sequence({3320, 65010})}),
            PolicyAction::kAccepted);
  EXPECT_EQ(speaker.process(RouteUpdate{P("10.10.128.0/17"), AsPath::sequence({666})}),
            PolicyAction::kRejectedInvalid);

  const auto best = speaker.best_route(A("10.10.200.1"));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->prefix, P("10.10.0.0/16"));
  EXPECT_EQ(best->validity, rpki::OriginValidity::kValid);
  EXPECT_EQ(speaker.counters().rejected_invalid, 1u);
}

TEST_F(SpeakerTest, NotFoundRoutesStillAccepted) {
  BgpSpeaker speaker(net::Asn(64500));
  speaker.enable_origin_validation(&index_);
  EXPECT_EQ(speaker.process(
                RouteUpdate{P("192.0.2.0/24"), AsPath::sequence({3320, 64501})}),
            PolicyAction::kAcceptedNotFound);
}

TEST_F(SpeakerTest, MalformedAnnouncementRejected) {
  BgpSpeaker speaker(net::Asn(64500));
  EXPECT_EQ(speaker.process(RouteUpdate{P("192.0.2.0/24"), AsPath{}}),
            PolicyAction::kRejectedMalformed);
}

TEST_F(SpeakerTest, ShortestPathPreferred) {
  BgpSpeaker speaker(net::Asn(64500));
  speaker.process(RouteUpdate{P("10.0.0.0/8"), AsPath::sequence({1, 2, 3, 100})});
  speaker.process(RouteUpdate{P("10.0.0.0/8"), AsPath::sequence({1, 100})});
  const auto best = speaker.best_route(A("10.1.1.1"));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->as_path.hop_count(), 2u);
}

TEST_F(SpeakerTest, WithdrawRemovesRoutes) {
  BgpSpeaker speaker(net::Asn(64500));
  speaker.process(RouteUpdate{P("10.0.0.0/8"), AsPath::sequence({1, 100})});
  EXPECT_TRUE(speaker.best_route(A("10.1.1.1")).has_value());
  speaker.process(RouteUpdate{P("10.0.0.0/8"), {}, /*withdraw=*/true});
  EXPECT_FALSE(speaker.best_route(A("10.1.1.1")).has_value());
}

}  // namespace
}  // namespace ripki::bgp
