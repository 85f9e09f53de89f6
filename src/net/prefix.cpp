#include "net/prefix.hpp"

#include <cassert>
#include <cstring>

#include "util/strings.hpp"

namespace ripki::net {

Prefix::Prefix(const IpAddress& addr, int length)
    : address_(addr.masked(length)), length_(length) {
  assert(length >= 0 && length <= addr.width());
}

util::Result<Prefix> Prefix::parse(std::string_view text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return util::Err("prefix: missing '/len'");
  auto addr = IpAddress::parse(text.substr(0, slash));
  if (!addr.ok()) return addr.error();
  std::uint64_t len = 0;
  if (!util::parse_u64(text.substr(slash + 1), len))
    return util::Err("prefix: bad length");
  if (len > static_cast<std::uint64_t>(addr.value().width()))
    return util::Err("prefix: length exceeds address width");
  return Prefix(addr.value(), static_cast<int>(len));
}

bool Prefix::contains(const IpAddress& addr) const {
  if (addr.family() != family()) return false;
  // Whole bytes first, then the one partial byte under a mask; the
  // prefix's own host bits are zero.
  const auto& ours = address_.bytes();
  const auto& theirs = addr.bytes();
  const auto whole = static_cast<std::size_t>(length_ / 8);
  if (std::memcmp(ours.data(), theirs.data(), whole) != 0) return false;
  const int rest = length_ % 8;
  if (rest == 0) return true;
  const auto mask = static_cast<std::uint8_t>(0xFF << (8 - rest));
  return (theirs[whole] & mask) == ours[whole];
}

bool Prefix::contains(const Prefix& other) const {
  if (other.family() != family() || other.length_ < length_) return false;
  return contains(other.address_);
}

bool Prefix::overlaps(const Prefix& other) const {
  return contains(other) || other.contains(*this);
}

std::string Prefix::to_string() const {
  return address_.to_string() + "/" + std::to_string(length_);
}

}  // namespace ripki::net
