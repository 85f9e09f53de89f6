#include "dns/name.hpp"

#include <array>
#include <cassert>
#include <functional>

namespace ripki::dns {

namespace {

constexpr std::size_t kMaxNameOctets = 255;  // root byte included
constexpr std::size_t kMaxLabelOctets = 63;
constexpr std::uint8_t kPointerMask = 0xC0;

char lower(std::uint8_t c) {
  return static_cast<char>(c >= 'A' && c <= 'Z' ? c + ('a' - 'A') : c);
}

/// Appends <len><label> to `wire`, lowercasing ASCII as it copies.
void append_label(std::string& wire, std::string_view label) {
  wire.push_back(static_cast<char>(label.size()));
  for (const char c : label) wire.push_back(lower(static_cast<std::uint8_t>(c)));
}

std::size_t label_length(std::string_view wire, std::size_t at) {
  return static_cast<std::uint8_t>(wire[at]);
}

}  // namespace

util::Result<DnsName> DnsName::parse(std::string_view text) {
  DnsName name;
  if (text.empty() || text == ".") return name;
  if (text.back() == '.') text.remove_suffix(1);

  name.wire_.reserve(text.size() + 1);
  for (;;) {
    const std::size_t dot = text.find('.');
    const std::string_view label = text.substr(0, dot);
    if (label.empty()) return util::Err("dns name: empty label");
    if (label.size() > kMaxLabelOctets) return util::Err("dns name: label exceeds 63 octets");
    append_label(name.wire_, label);
    if (dot == std::string_view::npos) break;
    text.remove_prefix(dot + 1);
  }
  if (name.encoded_size() > kMaxNameOctets) return util::Err("dns name: exceeds 255 octets");
  return name;
}

util::Result<void> DnsName::read_wire(std::span<const std::uint8_t> message,
                                      std::size_t& pos) {
  // Labels collect in a stack buffer and land in wire_ with one assign.
  std::array<char, kMaxNameOctets> name;
  std::size_t size = 0;
  std::size_t cursor = pos;
  bool jumped = false;
  // Forward progress guard: every compression pointer must point strictly
  // before the previous jump target (or the name start), which bounds the
  // walk and rejects loops.
  std::size_t min_offset = pos;

  for (;;) {
    if (cursor >= message.size()) return util::Err("dns: name runs past message");
    const std::uint8_t len = message[cursor];
    if ((len & kPointerMask) == kPointerMask) {
      if (cursor + 1 >= message.size()) return util::Err("dns: truncated pointer");
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3F) << 8) | message[cursor + 1];
      if (target >= min_offset) return util::Err("dns: non-decreasing pointer");
      if (!jumped) {
        pos = cursor + 2;
        jumped = true;
      }
      min_offset = target;
      cursor = target;
      continue;
    }
    if ((len & kPointerMask) != 0) return util::Err("dns: reserved label type");
    if (len == 0) {
      if (!jumped) pos = cursor + 1;
      wire_.assign(name.data(), size);
      return {};
    }
    if (cursor + 1 + len > message.size()) return util::Err("dns: truncated label");
    // The root byte counts toward the limit (RFC 1035 §3.1).
    if (size + 1 + len + 1 > kMaxNameOctets) return util::Err("dns: name exceeds 255 octets");
    name[size++] = static_cast<char>(len);
    for (std::size_t i = 1; i <= len; ++i) name[size++] = lower(message[cursor + i]);
    cursor += 1 + len;
  }
}

std::size_t DnsName::label_count() const {
  std::size_t count = 0;
  for (std::size_t at = 0; at < wire_.size(); at += 1 + label_length(wire_, at)) ++count;
  return count;
}

std::string_view DnsName::first_label() const {
  if (wire_.empty()) return {};
  return std::string_view(wire_).substr(1, label_length(wire_, 0));
}

std::string_view DnsName::text(std::array<char, 256>& buf) const {
  if (wire_.size() > buf.size()) return {};  // longer than any valid name
  std::size_t n = 0;
  for (std::size_t at = 0; at < wire_.size(); at += 1 + label_length(wire_, at)) {
    if (at != 0) buf[n++] = '.';
    n += wire_.copy(buf.data() + n, label_length(wire_, at), at + 1);
  }
  return {buf.data(), n};
}

DnsName DnsName::prepended(std::string_view label) const {
  assert(!label.empty() && label.size() <= kMaxLabelOctets);
  DnsName out;
  out.wire_.reserve(1 + label.size() + wire_.size());
  append_label(out.wire_, label);
  out.wire_ += wire_;
  assert(out.encoded_size() <= kMaxNameOctets);
  return out;
}

bool DnsName::ends_with(const DnsName& suffix) const {
  if (suffix.wire_.size() > wire_.size()) return false;
  const std::size_t start = wire_.size() - suffix.wire_.size();
  std::size_t at = 0;
  while (at < start) at += 1 + label_length(wire_, at);
  return at == start && std::string_view(wire_).substr(start) == suffix.wire_;
}

std::size_t DnsNameHash::operator()(const DnsName& name) const {
  return std::hash<std::string_view>{}(name.wire());
}

}  // namespace ripki::dns
