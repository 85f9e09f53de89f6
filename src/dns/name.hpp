// DNS domain names, case-insensitive (stored lowercase), max 255 octets /
// 63 per label (RFC 1035 §2.3.4).
//
// A name is one byte string in uncompressed wire format without the root
// byte: <len><label bytes> per label, leftmost label first. Equality is a
// byte compare, the hash runs over the same bytes, and the encoder copies
// (and compresses against) those bytes directly.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/result.hpp"

namespace ripki::dns {

class DnsName {
 public:
  DnsName() = default;  // the root name

  /// Parses dotted notation ("www.Example.COM" -> www.example.com).
  /// A trailing dot is accepted; empty labels elsewhere are rejected.
  static util::Result<DnsName> parse(std::string_view text);

  /// Reads the wire name at `pos` of `message` into this name, following
  /// RFC 1035 §4.1.4 compression pointers and reusing this name's buffer.
  /// On success `pos` is just past the name's bytes at `pos`. Rejects
  /// truncation, reserved label types, pointers that do not point strictly
  /// backwards (which bounds the walk and rejects loops), and names over
  /// 255 octets. On failure the name's contents are unspecified.
  util::Result<void> read_wire(std::span<const std::uint8_t> message,
                               std::size_t& pos);

  /// Lowercase wire labels without the root byte ("" for the root).
  std::string_view wire() const { return wire_; }
  bool is_root() const { return wire_.empty(); }
  std::size_t label_count() const;
  /// Leftmost label ("www" of www.example.com; "" for the root).
  std::string_view first_label() const;

  /// Dotted presentation without trailing dot ("" for the root), written
  /// into `buf` or into a fresh string. Every valid name fits `buf`.
  std::string_view text(std::array<char, 256>& buf) const;
  std::string to_string() const {
    std::array<char, 256> buf;
    return std::string(text(buf));
  }

  /// "www" + example.com -> www.example.com. `label` must be 1..63 octets
  /// and the result at most 255.
  DnsName prepended(std::string_view label) const;

  /// True when this name equals `suffix` or ends with it at a label
  /// boundary (a495.g.akamai.net ends_with akamai.net).
  bool ends_with(const DnsName& suffix) const;

  /// Total encoded length in octets (labels + length bytes + root byte).
  std::size_t encoded_size() const { return wire_.size() + 1; }

  bool operator==(const DnsName&) const = default;

 private:
  std::string wire_;
};

struct DnsNameHash {
  std::size_t operator()(const DnsName& name) const;
};

}  // namespace ripki::dns
