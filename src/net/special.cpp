#include "net/special.hpp"

#include <bitset>

namespace ripki::net {

namespace {

std::vector<SpecialPurposeBlock> build_v4() {
  auto mk = [](std::string_view text, std::string_view name) {
    auto p = Prefix::parse(text);
    return SpecialPurposeBlock{p.value(), name};
  };
  return {
      mk("0.0.0.0/8", "this host on this network"),
      mk("10.0.0.0/8", "private-use (RFC 1918)"),
      mk("100.64.0.0/10", "shared address space (RFC 6598)"),
      mk("127.0.0.0/8", "loopback"),
      mk("169.254.0.0/16", "link local"),
      mk("172.16.0.0/12", "private-use (RFC 1918)"),
      mk("192.0.0.0/24", "IETF protocol assignments"),
      mk("192.0.2.0/24", "TEST-NET-1"),
      mk("192.88.99.0/24", "6to4 relay anycast (deprecated)"),
      mk("192.168.0.0/16", "private-use (RFC 1918)"),
      mk("198.18.0.0/15", "benchmarking"),
      mk("198.51.100.0/24", "TEST-NET-2"),
      mk("203.0.113.0/24", "TEST-NET-3"),
      mk("224.0.0.0/4", "multicast"),
      mk("240.0.0.0/4", "reserved (incl. limited broadcast)"),
  };
}

std::vector<SpecialPurposeBlock> build_v6() {
  auto mk = [](std::string_view text, std::string_view name) {
    auto p = Prefix::parse(text);
    return SpecialPurposeBlock{p.value(), name};
  };
  return {
      mk("::/128", "unspecified"),
      mk("::1/128", "loopback"),
      mk("::ffff:0:0/96", "IPv4-mapped"),
      mk("100::/64", "discard-only"),
      mk("2001::/23", "IETF protocol assignments"),
      mk("2001:db8::/32", "documentation"),
      mk("2002::/16", "6to4"),
      mk("fc00::/7", "unique-local"),
      mk("fe80::/10", "link-local unicast"),
      mk("ff00::/8", "multicast"),
  };
}

/// The first octets that some v4 block covers: an address whose first
/// octet is not among them is in no block.
std::bitset<256> v4_first_octets() {
  std::bitset<256> octets;
  for (const SpecialPurposeBlock& block : special_purpose_v4()) {
    const std::size_t first = block.prefix.address().bytes()[0];
    const std::size_t span = block.prefix.length() >= 8
                                 ? 1
                                 : std::size_t{1} << (8 - block.prefix.length());
    for (std::size_t octet = first; octet < first + span; ++octet) octets.set(octet);
  }
  return octets;
}

}  // namespace

const std::vector<SpecialPurposeBlock>& special_purpose_v4() {
  static const std::vector<SpecialPurposeBlock> blocks = build_v4();
  return blocks;
}

const std::vector<SpecialPurposeBlock>& special_purpose_v6() {
  static const std::vector<SpecialPurposeBlock> blocks = build_v6();
  return blocks;
}

bool is_special_purpose(const IpAddress& addr) {
  static const std::bitset<256> v4_octets = v4_first_octets();
  if (addr.is_v4() && !v4_octets.test(addr.bytes()[0])) return false;
  return !special_purpose_name(addr).empty();
}

std::string_view special_purpose_name(const IpAddress& addr) {
  const auto& blocks = addr.is_v4() ? special_purpose_v4() : special_purpose_v6();
  for (const auto& block : blocks) {
    if (block.prefix.contains(addr)) return block.name;
  }
  return {};
}

}  // namespace ripki::net
