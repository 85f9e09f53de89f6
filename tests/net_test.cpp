#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>

#include "net/asn.hpp"
#include "net/ip.hpp"
#include "net/prefix.hpp"
#include "net/special.hpp"

namespace ripki::net {
namespace {

// --- IPv4 parsing/formatting --------------------------------------------------

TEST(Ipv4, ParseAndFormat) {
  const auto addr = IpAddress::parse("192.0.2.55");
  ASSERT_TRUE(addr.ok());
  EXPECT_TRUE(addr.value().is_v4());
  EXPECT_EQ(addr.value().to_string(), "192.0.2.55");
  EXPECT_EQ(addr.value().v4_value(), 0xC0000237u);
}

TEST(Ipv4, RejectsMalformed) {
  for (const char* bad : {"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "1.2.3.x",
                          "01a.2.3.4", "1..2.3", " 1.2.3.4"}) {
    EXPECT_FALSE(IpAddress::parse(bad).ok()) << bad;
  }
}

TEST(Ipv4, ConstructorsAgree) {
  EXPECT_EQ(IpAddress::v4(0x0A000001), IpAddress::v4(10, 0, 0, 1));
}

TEST(Ipv4, BitIndexingMsbFirst) {
  const auto addr = IpAddress::v4(0x80000001);
  EXPECT_TRUE(addr.bit(0));
  EXPECT_FALSE(addr.bit(1));
  EXPECT_TRUE(addr.bit(31));
  EXPECT_EQ(addr.width(), 32);
}

// --- IPv6 parsing/formatting ---------------------------------------------------

TEST(Ipv6, ParseFullForm) {
  const auto addr = IpAddress::parse("2001:0db8:0000:0000:0000:0000:0000:0001");
  ASSERT_TRUE(addr.ok());
  EXPECT_TRUE(addr.value().is_v6());
  EXPECT_EQ(addr.value().to_string(), "2001:db8::1");
}

TEST(Ipv6, ParseCompressed) {
  const auto a = IpAddress::parse("2a00::1");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().to_string(), "2a00::1");

  const auto b = IpAddress::parse("::");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value().to_string(), "::");

  const auto c = IpAddress::parse("::1");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value().to_string(), "::1");

  const auto d = IpAddress::parse("fe80::");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().to_string(), "fe80::");
}

TEST(Ipv6, CompressesLongestZeroRun) {
  const auto addr = IpAddress::parse("1:0:0:2:0:0:0:3");
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr.value().to_string(), "1:0:0:2::3");
}

TEST(Ipv6, SingleZeroGroupNotCompressed) {
  const auto addr = IpAddress::parse("1:0:2:3:4:5:6:7");
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr.value().to_string(), "1:0:2:3:4:5:6:7");
}

TEST(Ipv6, RejectsMalformed) {
  for (const char* bad : {":", ":::", "1::2::3", "1:2:3:4:5:6:7", "g::1",
                          "1:2:3:4:5:6:7:8:9", "12345::1"}) {
    EXPECT_FALSE(IpAddress::parse(bad).ok()) << bad;
  }
}

TEST(Ipv6, RoundTripsRandomisedForms) {
  for (const char* text : {"2001:db8::8:800:200c:417a", "ff01::101",
                           "2400:cb00:2048:1::6813:c166"}) {
    const auto addr = IpAddress::parse(text);
    ASSERT_TRUE(addr.ok()) << text;
    const auto again = IpAddress::parse(addr.value().to_string());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value(), addr.value());
  }
}

// --- masking -------------------------------------------------------------------

TEST(IpAddress, MaskClearsHostBits) {
  const auto addr = IpAddress::v4(192, 0, 2, 255);
  EXPECT_EQ(addr.masked(24).to_string(), "192.0.2.0");
  EXPECT_EQ(addr.masked(31).to_string(), "192.0.2.254");
  EXPECT_EQ(addr.masked(0).to_string(), "0.0.0.0");
  EXPECT_EQ(addr.masked(32), addr);
}

// --- Prefix ---------------------------------------------------------------------

TEST(Prefix, ParseCanonicalises) {
  const auto p = Prefix::parse("192.0.2.77/24");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().to_string(), "192.0.2.0/24");
  EXPECT_EQ(p.value().length(), 24);
}

TEST(Prefix, ParseRejectsBadInput) {
  for (const char* bad : {"192.0.2.0", "192.0.2.0/33", "192.0.2.0/-1",
                          "x/24", "2001:db8::/129", "192.0.2.0/"}) {
    EXPECT_FALSE(Prefix::parse(bad).ok()) << bad;
  }
}

TEST(Prefix, ContainsAddress) {
  const auto p = Prefix::parse("10.0.0.0/8").value();
  EXPECT_TRUE(p.contains(IpAddress::v4(10, 255, 1, 2)));
  EXPECT_FALSE(p.contains(IpAddress::v4(11, 0, 0, 1)));
  EXPECT_FALSE(p.contains(IpAddress::parse("2001:db8::1").value()));  // family
}

TEST(Prefix, ContainsPrefix) {
  const auto p8 = Prefix::parse("10.0.0.0/8").value();
  const auto p16 = Prefix::parse("10.5.0.0/16").value();
  EXPECT_TRUE(p8.contains(p16));
  EXPECT_FALSE(p16.contains(p8));
  EXPECT_TRUE(p8.contains(p8));
  const auto other = Prefix::parse("192.168.0.0/16").value();
  EXPECT_FALSE(p8.contains(other));
}

TEST(Prefix, Overlaps) {
  const auto a = Prefix::parse("10.0.0.0/8").value();
  const auto b = Prefix::parse("10.64.0.0/10").value();
  const auto c = Prefix::parse("172.16.0.0/12").value();
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
}

TEST(Prefix, ZeroLengthCoversEverything) {
  const auto def = Prefix::parse("0.0.0.0/0").value();
  EXPECT_TRUE(def.contains(IpAddress::v4(255, 255, 255, 255)));
  EXPECT_TRUE(def.contains(Prefix::parse("192.0.2.0/24").value()));
}

TEST(Prefix, V6Containment) {
  const auto p = Prefix::parse("2a00::/12").value();
  EXPECT_TRUE(p.contains(IpAddress::parse("2a0f:1::1").value()));
  EXPECT_FALSE(p.contains(IpAddress::parse("2c00::1").value()));
}

// --- containment against a bit-by-bit reference ----------------------------

/// MSB-first bit `i` of the raw address bytes; the reference reads them
/// directly rather than through IpAddress::bit.
bool raw_bit(const IpAddress& addr, int i) {
  return ((addr.bytes()[static_cast<std::size_t>(i / 8)] >> (7 - i % 8)) & 1) != 0;
}

bool reference_contains(const Prefix& prefix, const IpAddress& addr) {
  if (addr.family() != prefix.family()) return false;
  for (int i = 0; i < prefix.length(); ++i) {
    if (raw_bit(addr, i) != raw_bit(prefix.address(), i)) return false;
  }
  return true;
}

IpAddress from_bytes(const std::array<std::uint8_t, 16>& bytes, int width) {
  if (width == 128) return IpAddress::v6(bytes);
  return IpAddress::v4(bytes[0], bytes[1], bytes[2], bytes[3]);
}

/// An address that agrees with `base` on its first `shared` bits, differs
/// at bit `shared` and is random after it.
IpAddress diverging_at(std::mt19937_64& rng, const IpAddress& base, int shared) {
  std::array<std::uint8_t, 16> bytes = base.bytes();
  for (int i = shared; i < base.width(); ++i) {
    const auto mask = static_cast<std::uint8_t>(0x80u >> (i % 8));
    const bool flip = i == shared || (rng() & 1) != 0;
    if (flip) bytes[static_cast<std::size_t>(i / 8)] ^= mask;
  }
  return from_bytes(bytes, base.width());
}

TEST(Prefix, ContainsAgreesWithBitwiseReferenceAtEveryLength) {
  std::mt19937_64 rng(23);
  for (const int width : {32, 128}) {
    std::size_t inside = 0;
    std::size_t outside = 0;
    for (int length = 0; length <= width; ++length) {
      for (int trial = 0; trial < 24; ++trial) {
        std::array<std::uint8_t, 16> bytes{};
        for (std::size_t i = 0; i < static_cast<std::size_t>(width / 8); ++i)
          bytes[i] = static_cast<std::uint8_t>(rng());
        const IpAddress base = from_bytes(bytes, width);
        const Prefix prefix(base, length);
        // Divergence near the prefix length, where a masked byte decides.
        const int shared = std::clamp(
            length + static_cast<int>(rng() % 9) - 4, 0, width);
        const IpAddress addr = diverging_at(rng, base, shared);
        const bool want = reference_contains(prefix, addr);
        (want ? inside : outside) += 1;
        EXPECT_EQ(prefix.contains(addr), want)
            << prefix.to_string() << " vs " << addr.to_string();

        const int other_length = static_cast<int>(rng() % (width + 1));
        const Prefix other(addr, other_length);
        EXPECT_EQ(prefix.contains(other),
                  other_length >= length &&
                      reference_contains(prefix, other.address()))
            << prefix.to_string() << " vs " << other.to_string();

        const IpAddress foreign = from_bytes(bytes, width == 32 ? 128 : 32);
        EXPECT_FALSE(prefix.contains(foreign));
        EXPECT_FALSE(prefix.contains(Prefix(foreign, 0)));
      }
    }
    EXPECT_GT(inside, 0u);
    EXPECT_GT(outside, 0u);
  }
}

TEST(Prefix, HashDistinguishesLength) {
  const auto a = Prefix::parse("10.0.0.0/8").value();
  const auto b = Prefix::parse("10.0.0.0/16").value();
  EXPECT_NE(a, b);
  EXPECT_NE(PrefixHash{}(a), PrefixHash{}(b));
}

// --- special-purpose registry ---------------------------------------------------

TEST(Special, V4Blocks) {
  EXPECT_TRUE(is_special_purpose(IpAddress::v4(127, 0, 0, 1)));
  EXPECT_TRUE(is_special_purpose(IpAddress::v4(10, 1, 2, 3)));
  EXPECT_TRUE(is_special_purpose(IpAddress::v4(192, 168, 1, 1)));
  EXPECT_TRUE(is_special_purpose(IpAddress::v4(172, 16, 0, 1)));
  EXPECT_TRUE(is_special_purpose(IpAddress::v4(169, 254, 0, 1)));
  EXPECT_TRUE(is_special_purpose(IpAddress::v4(224, 0, 0, 5)));       // multicast
  EXPECT_TRUE(is_special_purpose(IpAddress::v4(255, 255, 255, 255)));
  EXPECT_TRUE(is_special_purpose(IpAddress::v4(198, 51, 100, 7)));    // TEST-NET-2
  EXPECT_TRUE(is_special_purpose(IpAddress::v4(100, 64, 0, 1)));      // CGN
}

TEST(Special, V4GloballyRoutableIsNot) {
  EXPECT_FALSE(is_special_purpose(IpAddress::v4(8, 8, 8, 8)));
  EXPECT_FALSE(is_special_purpose(IpAddress::v4(23, 1, 2, 3)));
  EXPECT_FALSE(is_special_purpose(IpAddress::v4(172, 32, 0, 1)));  // just past /12
  EXPECT_FALSE(is_special_purpose(IpAddress::v4(100, 128, 0, 1))); // past /10
}

TEST(Special, V6Blocks) {
  EXPECT_TRUE(is_special_purpose(IpAddress::parse("::1").value()));
  EXPECT_TRUE(is_special_purpose(IpAddress::parse("fe80::1").value()));
  EXPECT_TRUE(is_special_purpose(IpAddress::parse("fc00::1").value()));
  EXPECT_TRUE(is_special_purpose(IpAddress::parse("ff02::1").value()));
  EXPECT_TRUE(is_special_purpose(IpAddress::parse("2001:db8::5").value()));
  EXPECT_FALSE(is_special_purpose(IpAddress::parse("2a00:1450::1").value()));
  EXPECT_FALSE(is_special_purpose(IpAddress::parse("2600::1").value()));
}

TEST(Special, NamesAreInformative) {
  EXPECT_EQ(special_purpose_name(IpAddress::v4(127, 0, 0, 1)), "loopback");
  EXPECT_TRUE(special_purpose_name(IpAddress::v4(8, 8, 8, 8)).empty());
}

// --- Asn -------------------------------------------------------------------------

TEST(Asn, StrongTypeBasics) {
  const Asn a(64512);
  EXPECT_EQ(a.value(), 64512u);
  EXPECT_EQ(a.to_string(), "AS64512");
  EXPECT_LT(Asn(1), Asn(2));
  EXPECT_EQ(Asn(7), Asn(7));
  EXPECT_EQ(AsnHash{}(Asn(7)), AsnHash{}(Asn(7)));
}

}  // namespace
}  // namespace ripki::net
