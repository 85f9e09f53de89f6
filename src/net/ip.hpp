// IP address value types (IPv4 + IPv6) with strict textual parsing.
#pragma once

#include <array>
#include <cassert>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/result.hpp"

namespace ripki::net {

enum class Family : std::uint8_t { kIpv4 = 4, kIpv6 = 6 };

/// An immutable IPv4 or IPv6 address. IPv4 occupies bytes [0..3] of the
/// internal storage; bit indexing is MSB-first over the address width.
class IpAddress {
 public:
  IpAddress() = default;

  static IpAddress v4(std::uint32_t host_order);
  static IpAddress v4(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d);
  static IpAddress v6(const std::array<std::uint8_t, 16>& bytes);

  /// Parses dotted-quad IPv4 or RFC 4291 IPv6 text (with `::` compression).
  static util::Result<IpAddress> parse(std::string_view text);

  Family family() const { return family_; }
  bool is_v4() const { return family_ == Family::kIpv4; }
  bool is_v6() const { return family_ == Family::kIpv6; }

  /// Address width in bits: 32 or 128.
  int width() const { return is_v4() ? 32 : 128; }

  /// MSB-first bit `i` of the address (i in [0, width())).
  bool bit(int i) const {
    assert(i >= 0 && i < width());
    return ((bytes_[static_cast<std::size_t>(i / 8)] >> (7 - i % 8)) & 1) != 0;
  }

  /// Raw bytes; only the first width()/8 bytes are meaningful.
  const std::array<std::uint8_t, 16>& bytes() const { return bytes_; }

  /// IPv4 value in host order (v4 addresses only).
  std::uint32_t v4_value() const;

  /// Canonical text form (dotted quad / compressed lowercase hex).
  std::string to_string() const;

  /// Returns a copy with all bits after `prefix_len` cleared.
  IpAddress masked(int prefix_len) const;

  auto operator<=>(const IpAddress& other) const = default;

 private:
  std::array<std::uint8_t, 16> bytes_{};
  Family family_ = Family::kIpv4;
};

struct IpAddressHash {
  std::size_t operator()(const IpAddress& a) const;
};

}  // namespace ripki::net
